pub fn rule_id(ids: &[&'static str]) -> &'static str {
    ids.first().expect("one rule")
}
