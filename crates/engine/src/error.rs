//! Error type of the execution engine.

use std::fmt;

use seco_join::JoinError;
use seco_plan::PlanError;
use seco_query::QueryError;
use seco_services::ServiceError;

/// Errors raised while executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Underlying plan error.
    Plan(PlanError),
    /// Underlying query error.
    Query(QueryError),
    /// Underlying join error.
    Join(JoinError),
    /// Underlying service error.
    Service(ServiceError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "plan error: {e}"),
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::Join(e) => write!(f, "join error: {e}"),
            EngineError::Service(e) => write!(f, "service error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Plan(e) => Some(e),
            EngineError::Query(e) => Some(e),
            EngineError::Join(e) => Some(e),
            EngineError::Service(e) => Some(e),
        }
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}
impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}
impl From<JoinError> for EngineError {
    fn from(e: JoinError) -> Self {
        EngineError::Join(e)
    }
}
impl From<ServiceError> for EngineError {
    fn from(e: ServiceError) -> Self {
        EngineError::Service(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = PlanError::Cyclic.into();
        assert!(e.to_string().contains("plan error"));
        assert!(std::error::Error::source(&e).is_some());
        let e: EngineError = QueryError::UnknownAtom("x".into()).into();
        assert!(e.to_string().contains("query error"));
        let e: EngineError = JoinError::BadMethod { detail: "d".into() }.into();
        assert!(e.to_string().contains("join error"));
        let e: EngineError = ServiceError::UnknownService("s".into()).into();
        assert!(e.to_string().contains("service error"));
    }
}
