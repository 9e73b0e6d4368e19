//! What one benchmark run hands back: counts, output-check failures and
//! named metrics.

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Values that must repeat exactly on every run of one seed.
    pub deterministic: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records an output check; `msg` describes the failure.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }

    /// Records a value of the determinism self-check and checks that
    /// every earlier sample of it within this process agrees.
    pub fn deterministic(&mut self, name: &'static str, value: f64) {
        if let Some(&(_, first)) = self.deterministic.iter().find(|(n, _)| *n == name) {
            self.check(first == value, || {
                format!("determinism: {name} was {first} and then {value} in one run")
            });
        } else {
            self.deterministic.push((name, value));
        }
    }
}

/// `numerator / denominator`, or zero when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
