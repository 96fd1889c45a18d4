//! Architectural model of a distributed WFMS (Sec. 2 of the paper).
//!
//! A WFMS consists of `k` abstract *server types* — one communication
//! server type (e.g. an ORB), `m` workflow-engine types, and `n`
//! application-server types. Each type may be replicated on several
//! computers; the vector of replication degrees is the *system
//! configuration* `Y = (Y_1 … Y_k)`, and the vector of currently running
//! replicas is the *system state* `X ≤ Y`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a server type within a [`ServerTypeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerTypeId(pub usize);

impl fmt::Display for ServerTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-type#{}", self.0)
    }
}

/// The role a server type plays in the architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServerTypeKind {
    /// ORB-style communication middleware (exactly one type per WFMS in
    /// the paper's model, though the code does not enforce that).
    Communication,
    /// A workflow engine responsible for a set of (sub)workflow types.
    WorkflowEngine,
    /// An application server hosting invoked applications.
    ApplicationServer,
}

impl fmt::Display for ServerTypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerTypeKind::Communication => write!(f, "communication server"),
            ServerTypeKind::WorkflowEngine => write!(f, "workflow engine"),
            ServerTypeKind::ApplicationServer => write!(f, "application server"),
        }
    }
}

/// Description of one server type: identity, dependability parameters
/// (`λ_x`, `μ_x` of Sec. 2) and service-time moments (`b_x`, `b_x^(2)` of
/// Sec. 4.4). All rates and times are **per minute** / **in minutes**.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerType {
    /// Human-readable name, e.g. `"ORB"` or `"engine:Shipping"`.
    pub name: String,
    /// Architectural role.
    pub kind: ServerTypeKind,
    /// Failure rate `λ_x` (reciprocal of mean time to failure, per minute).
    /// Failures include maintenance downtimes.
    pub failure_rate: f64,
    /// Repair rate `μ_x` (reciprocal of mean time to repair, per minute).
    pub repair_rate: f64,
    /// Mean service time `b_x` per service request, in minutes.
    pub service_time_mean: f64,
    /// Second moment `b_x^(2)` of the service time, in minutes².
    pub service_time_second_moment: f64,
}

impl ServerType {
    /// A server type whose service time is exponential with the given mean
    /// (second moment `2 b²`).
    pub fn with_exponential_service(
        name: impl Into<String>,
        kind: ServerTypeKind,
        failure_rate: f64,
        repair_rate: f64,
        service_time_mean: f64,
    ) -> Self {
        ServerType {
            name: name.into(),
            kind,
            failure_rate,
            repair_rate,
            service_time_mean,
            service_time_second_moment: 2.0 * service_time_mean * service_time_mean,
        }
    }

    /// A server type whose service time is deterministic (second moment
    /// `b²`).
    pub fn with_deterministic_service(
        name: impl Into<String>,
        kind: ServerTypeKind,
        failure_rate: f64,
        repair_rate: f64,
        service_time_mean: f64,
    ) -> Self {
        ServerType {
            name: name.into(),
            kind,
            failure_rate,
            repair_rate,
            service_time_mean,
            service_time_second_moment: service_time_mean * service_time_mean,
        }
    }

    /// Mean time to failure `1/λ_x` in minutes.
    pub fn mttf(&self) -> f64 {
        1.0 / self.failure_rate
    }

    /// Mean time to repair `1/μ_x` in minutes.
    pub fn mttr(&self) -> f64 {
        1.0 / self.repair_rate
    }

    /// Stand-alone availability of a single replica,
    /// `μ / (λ + μ) = MTTF / (MTTF + MTTR)`.
    pub fn single_availability(&self) -> f64 {
        self.repair_rate / (self.failure_rate + self.repair_rate)
    }
}

/// Errors raised by the architectural model.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchError {
    /// A rate or moment is non-positive or non-finite.
    InvalidParameter {
        /// Which parameter.
        what: &'static str,
        /// Server type name.
        server_type: String,
        /// Offending value.
        value: f64,
    },
    /// A [`ServerTypeId`] does not exist in the registry.
    UnknownServerType {
        /// The id that failed to resolve.
        id: ServerTypeId,
        /// Number of registered types.
        registered: usize,
    },
    /// A configuration / system-state vector has the wrong length.
    LengthMismatch {
        /// What the vector described.
        what: &'static str,
        /// Expected length (number of server types).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A configuration must have at least one replica of every type.
    EmptyReplication {
        /// Server type with zero configured replicas.
        id: ServerTypeId,
    },
    /// A configuration assigns a server type more than [`MAX_REPLICAS`]
    /// replicas.
    TooManyReplicas {
        /// The offending server type.
        id: ServerTypeId,
        /// Replicas requested.
        replicas: usize,
    },
    /// A system state exceeds its configuration (`X_x > Y_x`).
    StateExceedsConfiguration {
        /// Offending server type.
        id: ServerTypeId,
        /// Available replicas claimed.
        available: usize,
        /// Configured replicas.
        configured: usize,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::InvalidParameter { what, server_type, value } => {
                write!(f, "invalid {what} ({value}) for server type {server_type:?}")
            }
            ArchError::UnknownServerType { id, registered } => {
                write!(f, "{id} not found ({registered} types registered)")
            }
            ArchError::LengthMismatch { what, expected, actual } => {
                write!(f, "{what} has length {actual}, expected {expected}")
            }
            ArchError::EmptyReplication { id } => {
                write!(f, "configuration assigns zero replicas to {id}")
            }
            ArchError::TooManyReplicas { id, replicas } => write!(
                f,
                "configuration assigns {replicas} replicas to {id}, more than the {MAX_REPLICAS} a server type may have"
            ),
            ArchError::StateExceedsConfiguration { id, available, configured } => write!(
                f,
                "system state claims {available} available replicas of {id}, configured {configured}"
            ),
        }
    }
}

impl std::error::Error for ArchError {}

/// The set of server types of a WFMS, in a fixed index order that every
/// configuration, system state, and load vector follows.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerTypeRegistry {
    types: Vec<ServerType>,
}

impl ServerTypeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ServerTypeRegistry { types: Vec::new() }
    }

    /// Registers a server type and returns its id.
    ///
    /// # Errors
    /// [`ArchError::InvalidParameter`] for non-positive rates or moments.
    pub fn register(&mut self, server_type: ServerType) -> Result<ServerTypeId, ArchError> {
        let checks = [
            ("failure rate", server_type.failure_rate),
            ("repair rate", server_type.repair_rate),
            ("service time mean", server_type.service_time_mean),
            (
                "service time second moment",
                server_type.service_time_second_moment,
            ),
        ];
        for (what, value) in checks {
            if !(value.is_finite() && value > 0.0) {
                return Err(ArchError::InvalidParameter {
                    what,
                    server_type: server_type.name.clone(),
                    value,
                });
            }
        }
        let id = ServerTypeId(self.types.len());
        self.types.push(server_type);
        Ok(id)
    }

    /// Number of registered server types (`k`).
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True when no types are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Looks a server type up by id.
    ///
    /// # Errors
    /// [`ArchError::UnknownServerType`] for a stale id.
    pub fn get(&self, id: ServerTypeId) -> Result<&ServerType, ArchError> {
        self.types.get(id.0).ok_or(ArchError::UnknownServerType {
            id,
            registered: self.types.len(),
        })
    }

    /// Iterates `(id, type)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (ServerTypeId, &ServerType)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (ServerTypeId(i), t))
    }

    /// Finds a server type by name.
    pub fn find_by_name(&self, name: &str) -> Option<ServerTypeId> {
        self.types
            .iter()
            .position(|t| t.name == name)
            .map(ServerTypeId)
    }

    /// All ids of a given kind.
    pub fn ids_of_kind(&self, kind: ServerTypeKind) -> Vec<ServerTypeId> {
        self.iter()
            .filter(|(_, t)| t.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }
}

/// The most replicas a [`Configuration`] may give one server type.
///
/// Each replica count the assessment engine sees becomes one per-type
/// record: the type's two birth–death rate ladders, its up-count
/// marginal and one waiting-time outcome per up-count, each `Y_x + 1`
/// entries long, about 48 bytes a replica, so 4.8 MB at this cap. The
/// marginal is a walk of `Y_x` rate ratios that leaves the range of
/// `f64` once `Y_x · λ/(λ + μ)` passes about 709: just above 10⁵
/// replicas for the Sec. 5.2 application server (one failure a day, ten
/// minute repairs), whose availability then reads NaN. Counts near
/// `u32::MAX` ask for tens of gigabytes at once, and a failed allocation
/// aborts the process instead of returning an error.
pub const MAX_REPLICAS: usize = 100_000;

/// A system configuration: replication degree `1 ≤ Y_x ≤ MAX_REPLICAS`
/// per server type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    replicas: Vec<usize>,
}

impl Configuration {
    /// Builds a configuration, validating it against the registry.
    ///
    /// # Errors
    /// * [`ArchError::LengthMismatch`] when the vector length is not `k`.
    /// * [`ArchError::EmptyReplication`] when some `Y_x` is zero.
    /// * [`ArchError::TooManyReplicas`] when some `Y_x` exceeds
    ///   [`MAX_REPLICAS`].
    pub fn new(registry: &ServerTypeRegistry, replicas: Vec<usize>) -> Result<Self, ArchError> {
        if replicas.len() != registry.len() {
            return Err(ArchError::LengthMismatch {
                what: "configuration",
                expected: registry.len(),
                actual: replicas.len(),
            });
        }
        for (i, &y) in replicas.iter().enumerate() {
            if y == 0 {
                return Err(ArchError::EmptyReplication {
                    id: ServerTypeId(i),
                });
            }
            if y > MAX_REPLICAS {
                return Err(ArchError::TooManyReplicas {
                    id: ServerTypeId(i),
                    replicas: y,
                });
            }
        }
        Ok(Configuration { replicas })
    }

    /// The minimal configuration: one replica of every type.
    pub fn minimal(registry: &ServerTypeRegistry) -> Self {
        Configuration {
            replicas: vec![1; registry.len()],
        }
    }

    /// Uniform configuration: `y` replicas of every type.
    ///
    /// # Errors
    /// [`ArchError::EmptyReplication`] when `y == 0`.
    pub fn uniform(registry: &ServerTypeRegistry, y: usize) -> Result<Self, ArchError> {
        Configuration::new(registry, vec![y; registry.len()])
    }

    /// Replication degree of server type `id`.
    ///
    /// # Errors
    /// [`ArchError::UnknownServerType`] for a stale id.
    pub fn replicas(&self, id: ServerTypeId) -> Result<usize, ArchError> {
        self.replicas
            .get(id.0)
            .copied()
            .ok_or(ArchError::UnknownServerType {
                id,
                registered: self.replicas.len(),
            })
    }

    /// The raw replication vector `Y`.
    pub fn as_slice(&self) -> &[usize] {
        &self.replicas
    }

    /// The raw replication vector `Y`, by value.
    pub fn into_vec(self) -> Vec<usize> {
        self.replicas
    }

    /// Number of server types `k`.
    pub fn k(&self) -> usize {
        self.replicas.len()
    }

    /// Total number of servers — the paper's cost measure (Sec. 7.1: "the
    /// cost of a configuration is assumed to be proportional to the total
    /// number of servers").
    pub fn total_servers(&self) -> usize {
        self.replicas.iter().sum()
    }

    /// Returns a copy with one more replica of `id`.
    ///
    /// # Errors
    /// * [`ArchError::UnknownServerType`] for a stale id.
    /// * [`ArchError::TooManyReplicas`] when `id` already has
    ///   [`MAX_REPLICAS`].
    pub fn with_added_replica(&self, id: ServerTypeId) -> Result<Configuration, ArchError> {
        let Some(&y) = self.replicas.get(id.0) else {
            return Err(ArchError::UnknownServerType {
                id,
                registered: self.replicas.len(),
            });
        };
        if y >= MAX_REPLICAS {
            return Err(ArchError::TooManyReplicas {
                id,
                replicas: y + 1,
            });
        }
        let mut replicas = self.replicas.clone();
        replicas[id.0] = y + 1;
        Ok(Configuration { replicas })
    }

    /// The fully-available system state for this configuration (`X = Y`).
    pub fn full_state(&self) -> SystemState {
        SystemState {
            available: self.replicas.clone(),
        }
    }

    /// Number of distinct system states `Π (Y_x + 1)` of the availability
    /// model for this configuration, saturating at `usize::MAX`, so a
    /// size cap compares against the true size.
    pub fn system_state_count(&self) -> usize {
        self.replicas
            .iter()
            .fold(1, |n: usize, &y| n.saturating_mul(y + 1))
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Y(")?;
        for (i, y) in self.replicas.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{y}")?;
        }
        write!(f, ")")
    }
}

/// A system state: the number of currently available replicas `X_x ≤ Y_x`
/// per server type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemState {
    available: Vec<usize>,
}

impl SystemState {
    /// Builds a system state, validating it against a configuration.
    ///
    /// # Errors
    /// * [`ArchError::LengthMismatch`] on a wrong vector length.
    /// * [`ArchError::StateExceedsConfiguration`] when `X_x > Y_x`.
    pub fn new(configuration: &Configuration, available: Vec<usize>) -> Result<Self, ArchError> {
        if available.len() != configuration.k() {
            return Err(ArchError::LengthMismatch {
                what: "system state",
                expected: configuration.k(),
                actual: available.len(),
            });
        }
        for (i, (&x, &y)) in available.iter().zip(configuration.as_slice()).enumerate() {
            if x > y {
                return Err(ArchError::StateExceedsConfiguration {
                    id: ServerTypeId(i),
                    available: x,
                    configured: y,
                });
            }
        }
        Ok(SystemState { available })
    }

    /// Available replicas of server type `id`.
    ///
    /// # Errors
    /// [`ArchError::UnknownServerType`] for a stale id.
    pub fn available(&self, id: ServerTypeId) -> Result<usize, ArchError> {
        self.available
            .get(id.0)
            .copied()
            .ok_or(ArchError::UnknownServerType {
                id,
                registered: self.available.len(),
            })
    }

    /// The raw availability vector `X`.
    pub fn as_slice(&self) -> &[usize] {
        &self.available
    }

    /// True when at least one replica of every server type is running —
    /// the paper's definition of "the entire WFMS is available".
    pub fn is_operational(&self) -> bool {
        self.available.iter().all(|&x| x > 0)
    }
}

impl fmt::Display for SystemState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X(")?;
        for (i, x) in self.available.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

/// The three-server-type example registry of Sec. 5.2 of the paper:
/// a communication server failing once a month, a workflow engine failing
/// once a week, an application server failing once a day, all repaired in
/// 10 minutes on average. Service-time parameters are not given in the
/// paper's availability example; callers that need them should use their
/// own registry — the defaults here (100 ms mean, exponential) are only
/// placeholders for availability-focused uses.
pub fn paper_section52_registry() -> ServerTypeRegistry {
    let mut reg = ServerTypeRegistry::new();
    let month = 43_200.0;
    let week = 10_080.0;
    let day = 1_440.0;
    let repair = 10.0;
    reg.register(ServerType::with_exponential_service(
        "communication-server",
        ServerTypeKind::Communication,
        1.0 / month,
        1.0 / repair,
        100.0 / 60_000.0,
    ))
    .expect("valid parameters");
    reg.register(ServerType::with_exponential_service(
        "workflow-engine",
        ServerTypeKind::WorkflowEngine,
        1.0 / week,
        1.0 / repair,
        100.0 / 60_000.0,
    ))
    .expect("valid parameters");
    reg.register(ServerType::with_exponential_service(
        "application-server",
        ServerTypeKind::ApplicationServer,
        1.0 / day,
        1.0 / repair,
        100.0 / 60_000.0,
    ))
    .expect("valid parameters");
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ServerTypeRegistry {
        paper_section52_registry()
    }

    #[test]
    fn register_assigns_sequential_ids() {
        let reg = registry();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.find_by_name("workflow-engine"), Some(ServerTypeId(1)));
        assert_eq!(reg.find_by_name("nope"), None);
        assert!(reg.get(ServerTypeId(2)).is_ok());
        assert!(matches!(
            reg.get(ServerTypeId(3)),
            Err(ArchError::UnknownServerType { registered: 3, .. })
        ));
    }

    #[test]
    fn register_rejects_invalid_parameters() {
        let mut reg = ServerTypeRegistry::new();
        let mut t =
            ServerType::with_exponential_service("x", ServerTypeKind::Communication, 0.0, 1.0, 1.0);
        assert!(matches!(
            reg.register(t.clone()),
            Err(ArchError::InvalidParameter {
                what: "failure rate",
                ..
            })
        ));
        t.failure_rate = 1.0;
        t.service_time_second_moment = f64::NAN;
        assert!(matches!(
            reg.register(t),
            Err(ArchError::InvalidParameter {
                what: "service time second moment",
                ..
            })
        ));
    }

    #[test]
    fn kinds_are_queryable() {
        let reg = registry();
        assert_eq!(
            reg.ids_of_kind(ServerTypeKind::Communication),
            vec![ServerTypeId(0)]
        );
        assert_eq!(
            reg.ids_of_kind(ServerTypeKind::ApplicationServer),
            vec![ServerTypeId(2)]
        );
    }

    #[test]
    fn mttf_mttr_availability_closed_forms() {
        let reg = registry();
        let app = reg.get(ServerTypeId(2)).unwrap();
        assert!((app.mttf() - 1440.0).abs() < 1e-9);
        assert!((app.mttr() - 10.0).abs() < 1e-9);
        assert!((app.single_availability() - 1440.0 / 1450.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_and_deterministic_second_moments() {
        let e =
            ServerType::with_exponential_service("e", ServerTypeKind::Communication, 1.0, 1.0, 3.0);
        assert!((e.service_time_second_moment - 18.0).abs() < 1e-12);
        let d = ServerType::with_deterministic_service(
            "d",
            ServerTypeKind::Communication,
            1.0,
            1.0,
            3.0,
        );
        assert!((d.service_time_second_moment - 9.0).abs() < 1e-12);
    }

    #[test]
    fn configuration_validation() {
        let reg = registry();
        assert!(Configuration::new(&reg, vec![1, 2]).is_err());
        assert!(matches!(
            Configuration::new(&reg, vec![1, 0, 2]),
            Err(ArchError::EmptyReplication {
                id: ServerTypeId(1)
            })
        ));
        let y = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        assert_eq!(y.total_servers(), 7);
        assert_eq!(y.k(), 3);
        assert_eq!(y.replicas(ServerTypeId(2)).unwrap(), 3);
        assert_eq!(y.system_state_count(), 3 * 3 * 4);
        assert_eq!(format!("{y}"), "Y(2,2,3)");
    }

    #[test]
    fn replica_counts_above_the_cap_are_refused() {
        let reg = registry();
        let at_cap = Configuration::new(&reg, vec![MAX_REPLICAS, 2, 2]).unwrap();
        assert!(matches!(
            Configuration::new(&reg, vec![2, MAX_REPLICAS + 1, 2]),
            Err(ArchError::TooManyReplicas {
                id: ServerTypeId(1),
                replicas,
            }) if replicas == MAX_REPLICAS + 1
        ));
        let err = Configuration::new(&reg, vec![4_294_967_295, 2, 2]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "configuration assigns 4294967295 replicas to server-type#0, \
             more than the 100000 a server type may have"
        );
        assert!(matches!(
            at_cap.with_added_replica(ServerTypeId(0)),
            Err(ArchError::TooManyReplicas {
                id: ServerTypeId(0),
                ..
            })
        ));
        assert!(at_cap.with_added_replica(ServerTypeId(1)).is_ok());
    }

    #[test]
    fn system_state_count_saturates_instead_of_wrapping() {
        let mut reg = ServerTypeRegistry::new();
        for i in 0..5 {
            reg.register(ServerType::with_exponential_service(
                format!("t{i}"),
                ServerTypeKind::ApplicationServer,
                1e-3,
                0.1,
                0.01,
            ))
            .unwrap();
        }
        // 65,536⁵ = 2⁸⁰ wraps to 0 in an unchecked product; 100,001⁵
        // wraps to an arbitrary count.
        for y in [65_535, MAX_REPLICAS] {
            let config = Configuration::uniform(&reg, y).unwrap();
            assert_eq!(config.system_state_count(), usize::MAX, "Y = {y}");
        }
        let fits = Configuration::uniform(&reg, 6).unwrap();
        assert_eq!(fits.system_state_count(), 16_807);
    }

    #[test]
    fn minimal_and_uniform_constructors() {
        let reg = registry();
        assert_eq!(Configuration::minimal(&reg).as_slice(), &[1, 1, 1]);
        assert_eq!(
            Configuration::uniform(&reg, 3).unwrap().as_slice(),
            &[3, 3, 3]
        );
        assert!(Configuration::uniform(&reg, 0).is_err());
    }

    #[test]
    fn with_added_replica_is_pure() {
        let reg = registry();
        let y = Configuration::minimal(&reg);
        let y2 = y.with_added_replica(ServerTypeId(1)).unwrap();
        assert_eq!(y.as_slice(), &[1, 1, 1]);
        assert_eq!(y2.as_slice(), &[1, 2, 1]);
        assert!(y.with_added_replica(ServerTypeId(7)).is_err());
    }

    #[test]
    fn system_state_validation() {
        let reg = registry();
        let y = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        assert!(SystemState::new(&y, vec![2, 2]).is_err());
        assert!(matches!(
            SystemState::new(&y, vec![2, 3, 3]),
            Err(ArchError::StateExceedsConfiguration {
                id: ServerTypeId(1),
                ..
            })
        ));
        let x = SystemState::new(&y, vec![2, 0, 1]).unwrap();
        assert!(!x.is_operational());
        assert_eq!(x.available(ServerTypeId(0)).unwrap(), 2);
        assert_eq!(format!("{x}"), "X(2,0,1)");
        assert!(y.full_state().is_operational());
    }

    #[test]
    fn paper_registry_matches_section_52_rates() {
        let reg = registry();
        let comm = reg.get(ServerTypeId(0)).unwrap();
        let engine = reg.get(ServerTypeId(1)).unwrap();
        let app = reg.get(ServerTypeId(2)).unwrap();
        assert!((comm.failure_rate - 1.0 / 43_200.0).abs() < 1e-15);
        assert!((engine.failure_rate - 1.0 / 10_080.0).abs() < 1e-15);
        assert!((app.failure_rate - 1.0 / 1_440.0).abs() < 1e-15);
        for t in [comm, engine, app] {
            assert!((t.repair_rate - 0.1).abs() < 1e-15);
        }
    }

    #[test]
    fn serde_round_trip() {
        let reg = registry();
        let json = serde_json::to_string(&reg).unwrap();
        let back: ServerTypeRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reg);
        let y = Configuration::new(&reg, vec![1, 2, 3]).unwrap();
        let json = serde_json::to_string(&y).unwrap();
        let back: Configuration = serde_json::from_str(&json).unwrap();
        assert_eq!(back, y);
    }
}
