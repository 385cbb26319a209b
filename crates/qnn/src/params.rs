//! Trainable parameter storage.

/// A flat trainable tensor with its gradient accumulator.
///
/// Layers own their `ParamTensor`s; the optimiser receives mutable views
/// in a stable order each step (see [`crate::optim`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamTensor {
    /// Parameter values.
    pub data: Vec<f32>,
    /// Accumulated gradient (same length as `data`).
    pub grad: Vec<f32>,
}

impl ParamTensor {
    /// Creates a zero-initialised tensor of the given length.
    pub fn zeros(len: usize) -> Self {
        ParamTensor {
            data: vec![0.0; len],
            grad: vec![0.0; len],
        }
    }

    /// Wraps explicit values with a zeroed gradient.
    pub fn from_values(data: Vec<f32>) -> Self {
        let grad = vec![0.0; data.len()];
        ParamTensor { data, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for an empty tensor.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_from_values() {
        let p = ParamTensor::zeros(3);
        assert_eq!(p.len(), 3);
        assert!(p.data.iter().all(|&v| v == 0.0));
        let q = ParamTensor::from_values(vec![1.0, 2.0]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.grad, vec![0.0, 0.0]);
        assert!(!q.is_empty());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = ParamTensor::zeros(2);
        p.grad[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad, vec![0.0, 0.0]);
    }
}
