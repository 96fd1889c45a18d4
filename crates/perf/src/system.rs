//! System-level performance: load aggregation over the workload mix,
//! maximum sustainable throughput, and per-server waiting times
//! (stages 3 and 4 of Sec. 4).

use serde::{Deserialize, Serialize};

use wfms_queueing::{merge_streams, Mg1, ServiceMoments, Stream};
use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

use crate::error::PerfError;
use crate::workflow::WorkflowAnalysis;

/// One workflow type in the system's workload mix: its analysis plus the
/// user-initiated arrival rate `ξ_t` (instances per minute).
#[derive(Debug, Clone)]
pub struct WorkloadItem {
    /// Per-type analysis (turnaround, expected requests).
    pub analysis: WorkflowAnalysis,
    /// Arrival rate `ξ_t` of new instances, per minute.
    pub arrival_rate: f64,
}

/// Aggregated load of the whole workload mix (Sec. 4.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemLoad {
    /// Request arrival rate `l_x = Σ_t ξ_t · r_{x,t}` per server type.
    pub request_rates: Vec<f64>,
    /// Total workflow arrival rate `Σ_t ξ_t` (instances per minute).
    pub total_arrival_rate: f64,
    /// Mean number of concurrently active instances per workflow type
    /// (`N_active = ξ_t · R_t`, Little's law), keyed by type name.
    pub active_instances: Vec<(String, f64)>,
}

/// Aggregates the load of all workflow types over all server types.
///
/// # Errors
/// * [`PerfError::EmptyWorkload`] for an empty mix.
/// * [`PerfError::InvalidArrivalRate`] for negative/non-finite rates.
/// * [`PerfError::LengthMismatch`] when an analysis does not match the
///   registry's server-type count.
pub fn aggregate_load(
    mix: &[WorkloadItem],
    registry: &ServerTypeRegistry,
) -> Result<SystemLoad, PerfError> {
    if mix.is_empty() {
        return Err(PerfError::EmptyWorkload);
    }
    let k = registry.len();
    let mut request_rates = vec![0.0; k];
    let mut total_arrival_rate = 0.0;
    let mut active_instances = Vec::with_capacity(mix.len());
    for item in mix {
        if !(item.arrival_rate.is_finite() && item.arrival_rate >= 0.0) {
            return Err(PerfError::InvalidArrivalRate {
                workflow: item.analysis.name.clone(),
                rate: item.arrival_rate,
            });
        }
        if item.analysis.expected_requests.len() != k {
            return Err(PerfError::LengthMismatch {
                what: "expected request vector",
                expected: k,
                actual: item.analysis.expected_requests.len(),
            });
        }
        total_arrival_rate += item.arrival_rate;
        for (x, rate) in request_rates.iter_mut().enumerate() {
            *rate += item.arrival_rate * item.analysis.expected_requests[x];
        }
        active_instances.push((
            item.analysis.name.clone(),
            item.arrival_rate * item.analysis.mean_turnaround,
        ));
    }
    Ok(SystemLoad {
        request_rates,
        total_arrival_rate,
        active_instances,
    })
}

/// Waiting-time outcome for one server type under a given system state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WaitingOutcome {
    /// The type's replicas sustain the load; the mean waiting time per
    /// request is reported alongside the per-replica utilization.
    Stable {
        /// Mean waiting time `w_x` in minutes.
        waiting_time: f64,
        /// Per-replica utilization `ρ_x`.
        utilization: f64,
    },
    /// The type is saturated (`ρ ≥ 1`): waiting time diverges.
    Saturated {
        /// The offered per-replica utilization.
        utilization: f64,
    },
    /// No replica of the type is running — the WFMS is down.
    Down,
}

impl WaitingOutcome {
    /// The finite waiting time, if the type is stable.
    pub fn waiting_time(&self) -> Option<f64> {
        match self {
            WaitingOutcome::Stable { waiting_time, .. } => Some(*waiting_time),
            _ => None,
        }
    }

    /// True when stable *and* the waiting time is within `threshold`.
    pub fn meets(&self, threshold: f64) -> bool {
        matches!(self, WaitingOutcome::Stable { waiting_time, .. } if *waiting_time <= threshold)
    }
}

/// Mean waiting time of service requests per server type, for a given
/// replica vector (a configuration `Y` or a degraded system state `X`):
/// each of the `replicas[x]` servers of type `x` is an M/G/1 queue fed
/// with `l_x / replicas[x]` requests per minute (Sec. 4.4).
///
/// # Errors
/// [`PerfError::LengthMismatch`] when the replica vector does not cover
/// every server type.
pub fn waiting_times(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    replicas: &[usize],
) -> Result<Vec<WaitingOutcome>, PerfError> {
    let k = registry.len();
    if replicas.len() != k || load.request_rates.len() != k {
        return Err(PerfError::LengthMismatch {
            what: "replica vector",
            expected: k,
            actual: replicas.len(),
        });
    }
    let _obs_span = wfms_obs::span!("mg1-waiting", types = k);
    wfms_obs::counter("perf.mg1.evaluations", k as u64);
    replicas
        .iter()
        .zip(&load.request_rates)
        .enumerate()
        .map(|(x, (&up, &l_x))| mg1_outcome(registry, ServerTypeId(x), l_x, up))
        .collect()
}

/// The M/G/1 outcome of server type `x` alone with `up` of its replicas
/// running — the single-type kernel of [`waiting_times`], which depends
/// on the type's own up-count only. That independence is what splits
/// the Sec. 6 performability fold into one sum per type.
///
/// # Errors
/// [`PerfError::LengthMismatch`] when the load does not cover type `x`;
/// [`PerfError::Arch`] when `x` is not registered.
pub fn type_waiting_time(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    x: ServerTypeId,
    up: usize,
) -> Result<WaitingOutcome, PerfError> {
    let k = registry.len();
    let l_x = match load.request_rates.get(x.0) {
        Some(&l_x) if load.request_rates.len() == k => l_x,
        _ => {
            return Err(PerfError::LengthMismatch {
                what: "request-rate vector",
                expected: k,
                actual: load.request_rates.len(),
            })
        }
    };
    let _obs_span = wfms_obs::span!("mg1-waiting", types = 1usize);
    wfms_obs::counter("perf.mg1.evaluations", 1);
    mg1_outcome(registry, x, l_x, up)
}

/// Each of the `up` servers of type `x` is an M/G/1 queue fed with
/// `l_x / up` requests per minute (Sec. 4.4); no server up is `Down`.
fn mg1_outcome(
    registry: &ServerTypeRegistry,
    x: ServerTypeId,
    l_x: f64,
    up: usize,
) -> Result<WaitingOutcome, PerfError> {
    if up == 0 {
        return Ok(WaitingOutcome::Down);
    }
    let server_type = registry.get(x)?;
    let service = ServiceMoments::new(
        server_type.service_time_mean,
        server_type.service_time_second_moment,
    )?;
    let queue = Mg1::new(l_x / up as f64, service)?;
    Ok(match queue.mean_waiting_time() {
        Ok(w) => WaitingOutcome::Stable {
            waiting_time: w,
            utilization: queue.utilization(),
        },
        Err(_) => WaitingOutcome::Saturated {
            utilization: queue.utilization(),
        },
    })
}

/// Maximum sustainable throughput of a configuration (Sec. 4.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// The factor by which the *current* workload mix can be scaled before
    /// the first server type saturates.
    pub max_scale_factor: f64,
    /// Maximum workflow completion rate (instances per minute) at that
    /// scale: `max_scale_factor × Σ ξ_t`.
    pub max_throughput: f64,
    /// The server type that saturates first — the bottleneck.
    pub bottleneck: ServerTypeId,
    /// Per-type maximum sustainable request rates `Y_x / b_x`.
    pub capacity: Vec<f64>,
}

/// Computes the maximum sustainable throughput for configuration `config`
/// under the mix proportions captured in `load`.
///
/// # Errors
/// [`PerfError::LengthMismatch`] on a registry/config mismatch;
/// [`PerfError::EmptyWorkload`] when the load carries no requests at all
/// (the scale factor would be unbounded).
pub fn max_sustainable_throughput(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    config: &Configuration,
) -> Result<ThroughputReport, PerfError> {
    let k = registry.len();
    if config.k() != k || load.request_rates.len() != k {
        return Err(PerfError::LengthMismatch {
            what: "configuration",
            expected: k,
            actual: config.k(),
        });
    }
    let mut best: Option<(f64, ServerTypeId)> = None;
    let mut capacity = Vec::with_capacity(k);
    for x in 0..k {
        let server_type = registry.get(ServerTypeId(x))?;
        let y_x = config.replicas(ServerTypeId(x))? as f64;
        let cap = y_x / server_type.service_time_mean;
        capacity.push(cap);
        let l_x = load.request_rates[x];
        if l_x > 0.0 {
            let scale = cap / l_x;
            if best.is_none_or(|(s, _)| scale < s) {
                best = Some((scale, ServerTypeId(x)));
            }
        }
    }
    let (max_scale_factor, bottleneck) = best.ok_or(PerfError::EmptyWorkload)?;
    Ok(ThroughputReport {
        max_scale_factor,
        max_throughput: max_scale_factor * load.total_arrival_rate,
        bottleneck,
        capacity,
    })
}

/// Mean waiting times when the replicas of a server type run on
/// *heterogeneous* computers — the extension the paper sketches at the
/// end of Sec. 4.4 ("could be extended to the heterogeneous case by
/// adjusting the service times on a per computer basis").
///
/// `speeds[x][r]` is the speed factor of replica `r` of type `x`
/// (`1.0` = the registry's nominal machine; `2.0` = twice as fast).
/// Load is routed proportionally to capacity, which equalizes the
/// per-replica utilization at `ρ_x = l_x · b_x / Σ_r s_r`; each replica
/// is then an M/G/1 queue with its service moments scaled by its speed,
/// and the type's reported waiting time is the load-weighted mean.
///
/// # Errors
/// [`PerfError::LengthMismatch`] on shape mismatches, and
/// [`PerfError::Queue`] on non-positive speed factors.
pub fn waiting_times_heterogeneous(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    speeds: &[Vec<f64>],
) -> Result<Vec<WaitingOutcome>, PerfError> {
    let k = registry.len();
    if speeds.len() != k || load.request_rates.len() != k {
        return Err(PerfError::LengthMismatch {
            what: "speed matrix",
            expected: k,
            actual: speeds.len(),
        });
    }
    let mut out = Vec::with_capacity(k);
    for (x, replica_speeds) in speeds.iter().enumerate() {
        if replica_speeds.is_empty() {
            out.push(WaitingOutcome::Down);
            continue;
        }
        for &s in replica_speeds {
            if !(s.is_finite() && s > 0.0) {
                return Err(PerfError::Queue(
                    wfms_queueing::QueueError::InvalidParameter {
                        what: "replica speed factor",
                        value: s,
                    },
                ));
            }
        }
        let server_type = registry.get(ServerTypeId(x))?;
        let l_x = load.request_rates[x];
        let total_speed: f64 = replica_speeds.iter().sum();
        let mut weighted_wait = 0.0;
        let mut worst_util = 0.0f64;
        let mut saturated = false;
        for &s in replica_speeds {
            let lambda_r = l_x * s / total_speed;
            let service = ServiceMoments::new(
                server_type.service_time_mean / s,
                server_type.service_time_second_moment / (s * s),
            )?;
            let queue = Mg1::new(lambda_r, service)?;
            worst_util = worst_util.max(queue.utilization());
            match queue.mean_waiting_time() {
                Ok(w) => {
                    let share = if l_x > 0.0 {
                        lambda_r / l_x
                    } else {
                        1.0 / replica_speeds.len() as f64
                    };
                    weighted_wait += share * w;
                }
                Err(_) => saturated = true,
            }
        }
        if saturated {
            out.push(WaitingOutcome::Saturated {
                utilization: worst_util,
            });
        } else {
            out.push(WaitingOutcome::Stable {
                waiting_time: weighted_wait,
                utilization: worst_util,
            });
        }
    }
    Ok(out)
}

/// A group of server types co-located on the same (replicated) computer,
/// for the generalized shared-machine case of Sec. 4.4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColocationGroup {
    /// The server types sharing the machine.
    pub types: Vec<ServerTypeId>,
    /// Number of identical machines the group is replicated on.
    pub replicas: usize,
}

/// Mean waiting time common to all server types of each co-location
/// group: per machine, the types' per-server arrival streams are merged
/// into one M/G/1 queue with mixture service moments.
///
/// # Errors
/// [`PerfError::LengthMismatch`] / [`PerfError::Arch`] on malformed
/// groups; a group with zero replicas reports [`WaitingOutcome::Down`].
pub fn waiting_times_colocated(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    groups: &[ColocationGroup],
) -> Result<Vec<WaitingOutcome>, PerfError> {
    let mut out = Vec::with_capacity(groups.len());
    for group in groups {
        if group.replicas == 0 {
            out.push(WaitingOutcome::Down);
            continue;
        }
        let mut streams = Vec::with_capacity(group.types.len());
        for &id in &group.types {
            let server_type = registry.get(id)?;
            let l_x = *load
                .request_rates
                .get(id.0)
                .ok_or(PerfError::LengthMismatch {
                    what: "request rates",
                    expected: id.0 + 1,
                    actual: load.request_rates.len(),
                })?;
            streams.push(Stream {
                arrival_rate: l_x / group.replicas as f64,
                service: ServiceMoments::new(
                    server_type.service_time_mean,
                    server_type.service_time_second_moment,
                )?,
            });
        }
        let merged = merge_streams(&streams)?;
        match merged.mean_waiting_time() {
            Ok(w) => out.push(WaitingOutcome::Stable {
                waiting_time: w,
                utilization: merged.utilization(),
            }),
            Err(_) => out.push(WaitingOutcome::Saturated {
                utilization: merged.utilization(),
            }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{analyze_workflow, AnalysisOptions};
    use wfms_statechart::{
        paper_section52_registry, ActivityKind, ActivitySpec, ChartBuilder, EcaRule, WorkflowSpec,
    };

    fn registry() -> ServerTypeRegistry {
        paper_section52_registry()
    }

    fn simple_item(arrival_rate: f64) -> WorkloadItem {
        let chart = ChartBuilder::new("W")
            .initial("i")
            .activity_state("a", "A")
            .final_state("f")
            .transition("i", "a", 1.0, EcaRule::default())
            .transition("a", "f", 1.0, EcaRule::default())
            .build()
            .unwrap();
        let spec = WorkflowSpec::new(
            "W",
            chart,
            [ActivitySpec::new(
                "A",
                ActivityKind::Automated,
                10.0,
                vec![2.0, 3.0, 3.0],
            )],
        );
        let analysis = analyze_workflow(&spec, &registry(), &AnalysisOptions::default()).unwrap();
        WorkloadItem {
            analysis,
            arrival_rate,
        }
    }

    #[test]
    fn aggregate_load_sums_requests_and_applies_littles_law() {
        let load = aggregate_load(&[simple_item(0.5), simple_item(0.25)], &registry()).unwrap();
        // l_x = (0.5 + 0.25) * r_x.
        assert!((load.request_rates[0] - 0.75 * 2.0).abs() < 1e-10);
        assert!((load.request_rates[1] - 0.75 * 3.0).abs() < 1e-10);
        assert!((load.total_arrival_rate - 0.75).abs() < 1e-12);
        // N_active = ξ · R = 0.5 · 10.
        assert!((load.active_instances[0].1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_load_validates_input() {
        assert!(matches!(
            aggregate_load(&[], &registry()),
            Err(PerfError::EmptyWorkload)
        ));
        let mut item = simple_item(1.0);
        item.arrival_rate = -1.0;
        assert!(matches!(
            aggregate_load(&[item], &registry()),
            Err(PerfError::InvalidArrivalRate { .. })
        ));
    }

    #[test]
    fn waiting_times_improve_with_replication() {
        // Service time mean is 100ms = 1/600 min; pick a rate that loads a
        // single server to ~90%.
        let reg = registry();
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        let rate = 0.9 / b;
        let load = SystemLoad {
            request_rates: vec![rate, rate, rate],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let w1 = waiting_times(&load, &reg, &[1, 1, 1]).unwrap();
        let w2 = waiting_times(&load, &reg, &[2, 2, 2]).unwrap();
        for x in 0..3 {
            let a = w1[x].waiting_time().unwrap();
            let b = w2[x].waiting_time().unwrap();
            assert!(b < a, "type {x}: {b} !< {a}");
        }
    }

    #[test]
    fn waiting_times_report_saturation_and_down() {
        let reg = registry();
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        let load = SystemLoad {
            request_rates: vec![1.5 / b, 0.5 / b, 0.5 / b],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let w = waiting_times(&load, &reg, &[1, 1, 0]).unwrap();
        assert!(matches!(w[0], WaitingOutcome::Saturated { utilization } if utilization > 1.0));
        assert!(matches!(w[1], WaitingOutcome::Stable { .. }));
        assert!(matches!(w[2], WaitingOutcome::Down));
        assert_eq!(w[0].waiting_time(), None);
        assert!(!w[0].meets(1.0));
        assert!(!w[2].meets(f64::INFINITY));
    }

    #[test]
    fn single_type_kernel_matches_every_entry_of_the_joint_vector() {
        let reg = registry();
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        let load = SystemLoad {
            request_rates: vec![1.5 / b, 0.5 / b, 2.5 / b],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        for state in [[0, 1, 2], [1, 2, 3], [2, 0, 1], [3, 3, 0]] {
            let joint = waiting_times(&load, &reg, &state).unwrap();
            for (x, &up) in state.iter().enumerate() {
                let single = type_waiting_time(&load, &reg, ServerTypeId(x), up).unwrap();
                assert_eq!(single, joint[x], "type {x} at {up} up");
            }
        }
        assert!(matches!(
            type_waiting_time(&load, &reg, ServerTypeId(3), 1),
            Err(PerfError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn waiting_outcome_meets_threshold() {
        let ok = WaitingOutcome::Stable {
            waiting_time: 0.5,
            utilization: 0.5,
        };
        assert!(ok.meets(1.0));
        assert!(!ok.meets(0.1));
    }

    #[test]
    fn saturated_type_two_replicas_becomes_stable() {
        let reg = registry();
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        let load = SystemLoad {
            request_rates: vec![1.5 / b, 0.1 / b, 0.1 / b],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let w = waiting_times(&load, &reg, &[2, 1, 1]).unwrap();
        assert!(
            matches!(w[0], WaitingOutcome::Stable { utilization, .. } if (utilization - 0.75).abs() < 1e-9)
        );
    }

    #[test]
    fn throughput_identifies_bottleneck() {
        let reg = registry();
        let item = simple_item(1.0);
        let load = aggregate_load(&[item], &reg).unwrap();
        let config = Configuration::new(&reg, vec![1, 1, 1]).unwrap();
        let report = max_sustainable_throughput(&load, &reg, &config).unwrap();
        // Engine and app have r = 3 per instance; app and engine tie but the
        // first minimum wins: engine (index 1) has l_x = 3, same as app? app
        // r = 3 too -> first strict minimum is engine (scanned first).
        assert_eq!(report.bottleneck, ServerTypeId(1));
        // Capacity of type x = Y_x / b_x.
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        assert!((report.capacity[0] - 1.0 / b).abs() < 1e-9);
        // Max throughput = scale * total arrival rate; scale = (1/b)/3.
        assert!((report.max_scale_factor - 1.0 / (b * 3.0)).abs() < 1e-6);
        assert!((report.max_throughput - report.max_scale_factor).abs() < 1e-9);
    }

    #[test]
    fn throughput_scales_linearly_with_bottleneck_replicas() {
        let reg = registry();
        let load = aggregate_load(&[simple_item(1.0)], &reg).unwrap();
        let one = max_sustainable_throughput(
            &load,
            &reg,
            &Configuration::new(&reg, vec![1, 1, 1]).unwrap(),
        )
        .unwrap();
        let doubled = max_sustainable_throughput(
            &load,
            &reg,
            &Configuration::new(&reg, vec![2, 2, 2]).unwrap(),
        )
        .unwrap();
        assert!((doubled.max_throughput - 2.0 * one.max_throughput).abs() < 1e-9);
    }

    #[test]
    fn colocation_increases_waiting_over_dedicated() {
        let reg = registry();
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        let rate = 0.4 / b;
        let load = SystemLoad {
            request_rates: vec![rate, rate, rate],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let dedicated = waiting_times(&load, &reg, &[1, 1, 1]).unwrap();
        let shared = waiting_times_colocated(
            &load,
            &reg,
            &[ColocationGroup {
                types: vec![ServerTypeId(0), ServerTypeId(1)],
                replicas: 1,
            }],
        )
        .unwrap();
        let w_shared = shared[0].waiting_time().unwrap();
        let w_dedicated = dedicated[0].waiting_time().unwrap();
        assert!(w_shared > w_dedicated);
    }

    #[test]
    fn colocation_zero_replicas_is_down() {
        let reg = registry();
        let load = SystemLoad {
            request_rates: vec![1.0, 1.0, 1.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let out = waiting_times_colocated(
            &load,
            &reg,
            &[ColocationGroup {
                types: vec![ServerTypeId(0)],
                replicas: 0,
            }],
        )
        .unwrap();
        assert_eq!(out, vec![WaitingOutcome::Down]);
    }

    #[test]
    fn heterogeneous_with_unit_speeds_matches_homogeneous() {
        let reg = registry();
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        let rate = 0.8 / b;
        let load = SystemLoad {
            request_rates: vec![rate, rate, rate],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let homo = waiting_times(&load, &reg, &[2, 2, 2]).unwrap();
        let hetero =
            waiting_times_heterogeneous(&load, &reg, &[vec![1.0; 2], vec![1.0; 2], vec![1.0; 2]])
                .unwrap();
        for (h, g) in homo.iter().zip(&hetero) {
            let (wh, wg) = (h.waiting_time().unwrap(), g.waiting_time().unwrap());
            assert!((wh - wg).abs() < 1e-12, "{wh} vs {wg}");
        }
    }

    #[test]
    fn faster_replica_reduces_type_waiting() {
        let reg = registry();
        let b = reg.get(ServerTypeId(0)).unwrap().service_time_mean;
        let rate = 1.2 / b;
        let load = SystemLoad {
            request_rates: vec![rate, 0.01, 0.01],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let even =
            waiting_times_heterogeneous(&load, &reg, &[vec![1.0, 1.0], vec![1.0], vec![1.0]])
                .unwrap();
        let upgraded =
            waiting_times_heterogeneous(&load, &reg, &[vec![2.0, 1.0], vec![1.0], vec![1.0]])
                .unwrap();
        assert!(
            upgraded[0].waiting_time().unwrap() < even[0].waiting_time().unwrap(),
            "upgrading one machine must help"
        );
        // Proportional routing equalizes utilization below saturation.
        if let WaitingOutcome::Stable { utilization, .. } = upgraded[0] {
            assert!((utilization - 1.2 / 3.0).abs() < 1e-9, "util {utilization}");
        } else {
            panic!("expected stable");
        }
    }

    #[test]
    fn heterogeneous_edge_cases() {
        let reg = registry();
        let load = SystemLoad {
            request_rates: vec![1.0, 1.0, 1.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        // Empty replica list = type down.
        let out =
            waiting_times_heterogeneous(&load, &reg, &[vec![], vec![1.0], vec![1.0]]).unwrap();
        assert!(matches!(out[0], WaitingOutcome::Down));
        // Bad speed factor rejected.
        assert!(
            waiting_times_heterogeneous(&load, &reg, &[vec![0.0], vec![1.0], vec![1.0]]).is_err()
        );
        // Shape mismatch rejected.
        assert!(matches!(
            waiting_times_heterogeneous(&load, &reg, &[vec![1.0]]),
            Err(PerfError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn length_mismatches_are_reported() {
        let reg = registry();
        let load = SystemLoad {
            request_rates: vec![1.0, 1.0, 1.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        assert!(matches!(
            waiting_times(&load, &reg, &[1, 1]),
            Err(PerfError::LengthMismatch { .. })
        ));
    }
}
