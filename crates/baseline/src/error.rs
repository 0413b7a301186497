//! Error types for the baseline index implementations.

use std::fmt;

use flashsim::DeviceError;

/// Errors returned by the baseline indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The index configuration is inconsistent.
    InvalidConfig(String),
    /// The index ran out of space.
    Full,
    /// An error bubbled up from the storage device.
    Device(DeviceError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            BaselineError::Full => write!(f, "index is full"),
            BaselineError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for BaselineError {
    fn from(e: DeviceError) -> Self {
        BaselineError::Device(e)
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, BaselineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: BaselineError = DeviceError::DeviceFull.into();
        assert!(e.to_string().contains("device error"));
        assert!(BaselineError::Full.to_string().contains("full"));
        assert!(BaselineError::InvalidConfig("bad".into()).to_string().contains("bad"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
