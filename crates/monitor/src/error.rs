//! Every typed failure of the crate, and the umbrella over them.
//!
//! The monitor's operations fail in three well-typed ways — a read
//! against an unknown/dead query ([`QueryError`]), a refused registration
//! ([`RegisterError`]), a partially applied selector swap
//! ([`SwapError`]). Call sites that only care about *one* operation keep the precise
//! type; callers composing several (the builder, service embeds, `?`
//! chains in examples) fold them into [`MonitorError`] via the `From`
//! impls here.

use prosel_estimators::EstimatorKind;
use std::fmt;

/// Why a [`MonitorService`](crate::MonitorService) read could not be served.
///
/// The two failure modes are operationally different — an unknown query is
/// the caller's bug (or a completed/unregistered query), a dead shard is a
/// service-health incident — so the read APIs surface them as distinct
/// typed values instead of flattening both into `None` (the read-side
/// mirror of [`RegisterError`]'s non-panicking admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The query (or the requested pipeline of it) is not registered on
    /// its owning shard: never registered, already unregistered, or
    /// dropped after a corrupt/late-joined stream.
    QueryUnknown(usize),
    /// The shard owning this query is dead (its task panicked) or the
    /// service is shutting down.
    ShardDown,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::QueryUnknown(q) => write!(f, "query {q} is not registered"),
            QueryError::ShardDown => write!(f, "owning shard is dead"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A selector swap reached only part of the service: one or more shards
/// were dead, so the surviving shards now serve the new model while the
/// dead ones are frozen on the old one.
///
/// The swap **is applied** to every surviving shard (new registrations
/// there score with the new model under the bumped epoch); the error makes
/// the partial broadcast visible instead of silently reporting success —
/// the channel design's silent-partial-swap hole. A caller that cannot
/// tolerate mixed models should treat this as a service-health incident
/// (the dead shards need replacing anyway; they also fail every read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapError {
    /// Shard ids the broadcast could not reach (dead tasks), ascending.
    pub shards: Vec<usize>,
    /// The epoch the surviving shards now serve, if any survived.
    pub epoch: Option<u64>,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "selector swap missed {} dead shard(s) {:?}", self.shards.len(), self.shards)?;
        match self.epoch {
            Some(e) => write!(f, "; surviving shards serve epoch {e}"),
            None => write!(f, "; no shard survived"),
        }
    }
}

impl std::error::Error for SwapError {}

/// Why a registration (or monitor construction) was refused.
///
/// A service fronting thousands of queries must not abort on a duplicate
/// id or a misconfigured estimator — these are recoverable caller errors,
/// surfaced as values via [`crate::ProgressMonitor::try_register`] and the
/// [`crate::MonitorBuilder`] build methods (the panicking `register`
/// routes through the same checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterError {
    /// The query id is already registered on this monitor/shard.
    DuplicateQuery(usize),
    /// The estimator kind needs post-hoc totals and cannot serve live
    /// progress (the oracle kinds).
    OracleKind(EstimatorKind),
    /// The monitor (or the owning shard) is at its configured admission
    /// cap ([`crate::MonitorConfig::max_queries`] concurrently registered
    /// queries): the registration was refused to keep shard state bounded
    /// under open-loop admission pressure. Retry after earlier queries
    /// finish or are unregistered.
    Saturated {
        /// The cap that was hit.
        limit: usize,
    },
    /// The shard worker that owns this query is no longer running
    /// (service mode only).
    ShardDown,
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::DuplicateQuery(q) => write!(f, "query {q} already registered"),
            RegisterError::OracleKind(k) => {
                write!(f, "{k} needs post-hoc totals and cannot serve progress online")
            }
            RegisterError::Saturated { limit } => {
                write!(f, "monitor saturated: admission cap of {limit} registered queries reached")
            }
            RegisterError::ShardDown => write!(f, "owning shard worker is gone"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Any error the monitor crate can produce, as one `?`-friendly type.
#[derive(Debug)]
pub enum MonitorError {
    /// A read or unregister against an unknown query or dead shard.
    Query(QueryError),
    /// A refused registration (duplicate id, oracle kind, saturation,
    /// dead shard).
    Register(RegisterError),
    /// A selector swap that failed on one or more shards.
    Swap(SwapError),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Query(e) => write!(f, "{e}"),
            MonitorError::Register(e) => write!(f, "{e}"),
            MonitorError::Swap(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MonitorError::Query(e) => Some(e),
            MonitorError::Register(e) => Some(e),
            MonitorError::Swap(e) => Some(e),
        }
    }
}

impl From<QueryError> for MonitorError {
    fn from(e: QueryError) -> Self {
        MonitorError::Query(e)
    }
}

impl From<RegisterError> for MonitorError {
    fn from(e: RegisterError) -> Self {
        MonitorError::Register(e)
    }
}

impl From<SwapError> for MonitorError {
    fn from(e: SwapError) -> Self {
        MonitorError::Swap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn every_variant_displays_and_sources() {
        let q: MonitorError = QueryError::QueryUnknown(7).into();
        assert!(q.to_string().contains('7'));
        assert!(q.source().is_some());

        let r: MonitorError = RegisterError::DuplicateQuery(3).into();
        assert!(r.to_string().contains('3'));
        assert!(r.source().is_some());

        let s: MonitorError = SwapError { shards: vec![1], epoch: None }.into();
        assert!(s.to_string().contains('1'));
        assert!(s.source().is_some());
    }
}
