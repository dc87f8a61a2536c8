use std::error::Error;
use std::fmt;

use mvq_nn::NnError;
use mvq_tensor::TensorError;

/// Error type for the MVQ compression pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MvqError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A model forward/backward pass failed.
    Nn(NnError),
    /// A configuration parameter was invalid.
    InvalidConfig(String),
    /// A weight tensor cannot be grouped with the requested strategy.
    IncompatibleShape {
        /// The offending dims.
        dims: Vec<usize>,
        /// Why grouping failed.
        detail: String,
    },
    /// A serialized artifact blob could not be decoded (truncation, bad
    /// magic, unsupported version, checksum mismatch, or inconsistent
    /// payload fields).
    Codec(String),
}

impl fmt::Display for MvqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvqError::Tensor(e) => write!(f, "tensor error: {e}"),
            MvqError::Nn(e) => write!(f, "model error: {e}"),
            MvqError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MvqError::IncompatibleShape { dims, detail } => {
                write!(f, "cannot group weight of dims {dims:?}: {detail}")
            }
            MvqError::Codec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl Error for MvqError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MvqError::Tensor(e) => Some(e),
            MvqError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for MvqError {
    fn from(e: TensorError) -> Self {
        MvqError::Tensor(e)
    }
}

impl From<NnError> for MvqError {
    /// A model-layer config error (a zero epoch count or batch size in the
    /// training walk) stays a config error here.
    fn from(e: NnError) -> Self {
        match e {
            NnError::InvalidConfig(msg) => MvqError::InvalidConfig(msg),
            e => MvqError::Nn(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_sources() {
        let te = TensorError::InvalidArgument("x".into());
        let e: MvqError = te.into();
        assert!(Error::source(&e).is_some());
        let ne = NnError::NoForwardCache("conv");
        let e: MvqError = ne.into();
        assert!(Error::source(&e).is_some());
        assert!(e.to_string().contains("conv"));
    }

    #[test]
    fn display_is_nonempty() {
        let e = MvqError::IncompatibleShape { dims: vec![3, 3], detail: "no".into() };
        assert!(e.to_string().contains("[3, 3]"));
    }
}
