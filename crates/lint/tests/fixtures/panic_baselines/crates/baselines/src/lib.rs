pub fn first_cost(costs: &[f64]) -> f64 {
    *costs.first().unwrap()
}
