//! Fabric telemetry.
//!
//! The switch records ground-truth queue behaviour (waits, sojourns, busy
//! time). The measurement methodology in `anp-core` must *not* read these —
//! it only sees probe-packet latencies, exactly like the paper's ImpactB on
//! real hardware — but tests and benches use them to validate that the
//! inferred utilization tracks the true one.

use crate::time::{SimDuration, SimTime};

/// Ground-truth counters for the central routing stage.
#[derive(Debug, Clone, Default)]
pub struct SwitchStats {
    /// Packets that entered the central queue.
    pub arrivals: u64,
    /// Packets that completed service.
    pub served: u64,
    /// Sum of time spent waiting in the central queue (arrival → service
    /// start), nanoseconds.
    pub total_wait_ns: u128,
    /// Sum of time from arrival to service completion, nanoseconds.
    pub total_sojourn_ns: u128,
    /// Sum of service durations, nanoseconds. Dividing by the observation
    /// horizon times the server count gives the true utilization ρ.
    pub busy_ns: u128,
    /// Number of parallel routing servers (set by the stage; 1 by
    /// default).
    pub servers: usize,
    /// Largest central-queue length observed (including the packet in
    /// service).
    pub max_queue_len: usize,
    /// Sum of queue lengths sampled at each arrival (for mean queue length
    /// by arrival averaging).
    pub queue_len_sum: u128,
    /// Start of the observation window: [`SimTime::ZERO`], as the
    /// counters cover the switch's whole life.
    pub window_start: SimTime,
}

impl SwitchStats {
    /// Mean waiting time (excluding service) of served packets.
    pub fn mean_wait(&self) -> SimDuration {
        if self.served == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.total_wait_ns / self.served as u128) as u64)
    }

    /// Mean sojourn time (wait + service) of served packets — the switch's
    /// contribution to packet latency, i.e. the `W` of the paper's eq. 1.
    pub fn mean_sojourn(&self) -> SimDuration {
        if self.served == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.total_sojourn_ns / self.served as u128) as u64)
    }

    /// True routing-stage utilization over `[window_start, now]`: the mean
    /// fraction of servers kept busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let horizon = now.saturating_since(self.window_start).as_nanos();
        if horizon == 0 {
            return 0.0;
        }
        let capacity = horizon as f64 * self.servers.max(1) as f64;
        (self.busy_ns as f64 / capacity).min(1.0)
    }

    /// Mean queue length seen by arriving packets (PASTA estimator under
    /// Poisson arrivals).
    pub fn mean_queue_len_at_arrival(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        self.queue_len_sum as f64 / self.arrivals as f64
    }
}

/// Fabric-wide counters.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Messages accepted by `send_message`.
    pub messages_sent: u64,
    /// Messages fully delivered to their destination node.
    pub messages_delivered: u64,
    /// Packets created by segmentation (remote traffic only).
    pub packets_created: u64,
    /// Packets delivered to destination NICs (remote traffic only). Each
    /// message gets a single `Deliver`, so a packet counts when it leaves
    /// its final egress port, and at a horizon cut this includes packets
    /// still on their last wire.
    pub packets_delivered: u64,
    /// Intra-node messages short-circuited past the switch.
    pub local_messages: u64,
    /// Times a NIC was stalled by switch back-pressure (no credit).
    pub backpressure_stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = SwitchStats::default();
        assert_eq!(s.mean_wait(), SimDuration::ZERO);
        assert_eq!(s.mean_sojourn(), SimDuration::ZERO);
        assert_eq!(s.utilization(SimTime::from_nanos(1000)), 0.0);
        assert_eq!(s.mean_queue_len_at_arrival(), 0.0);
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let mut s = SwitchStats {
            busy_ns: 400,
            ..SwitchStats::default()
        };
        assert!((s.utilization(SimTime::from_nanos(1_000)) - 0.4).abs() < 1e-12);
        // Clamped to 1 even if accounting overshoots.
        s.busy_ns = 5_000;
        assert_eq!(s.utilization(SimTime::from_nanos(1_000)), 1.0);
    }

    #[test]
    fn utilization_normalizes_by_server_count() {
        let mut s = SwitchStats {
            servers: 4,
            ..SwitchStats::default()
        };
        // 4 servers busy 400 ns each over a 1000 ns window: ρ = 0.4.
        s.busy_ns = 1_600;
        assert!((s.utilization(SimTime::from_nanos(1_000)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mean_wait_and_sojourn_divide_by_served() {
        let s = SwitchStats {
            served: 4,
            total_wait_ns: 400,
            total_sojourn_ns: 1_200,
            ..SwitchStats::default()
        };
        assert_eq!(s.mean_wait().as_nanos(), 100);
        assert_eq!(s.mean_sojourn().as_nanos(), 300);
    }
}
