//! The traced run's ledger: layer totals against the run's own
//! end-to-end time, and the residual neither accounts for.

/// Largest residual, as a share of the end-to-end total, a traced run
/// may leave unattributed before it fails its output check.
pub const RESIDUAL_BOUND_PCT: f64 = 10.0;

/// Layer busy totals measured inside one end-to-end interval.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// What the total measures, for the printout.
    pub what: &'static str,
    /// The end-to-end time the layers should add up to, in seconds.
    pub total_s: f64,
    /// `(layer, seconds)`, in the order they are printed.
    pub layers: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// An empty ledger for an interval of `total_s` seconds.
    pub fn new(what: &'static str, total_s: f64) -> Ledger {
        Ledger {
            what,
            total_s,
            layers: Vec::new(),
        }
    }

    /// Adds one layer's busy total.
    pub fn layer(mut self, name: &'static str, seconds: f64) -> Ledger {
        self.layers.push((name, seconds));
        self
    }

    /// Sum of every layer.
    pub fn attributed_s(&self) -> f64 {
        self.layers.iter().map(|(_, s)| s).sum()
    }

    /// What the layers leave unexplained (negative when they overlap).
    pub fn residual_s(&self) -> f64 {
        self.total_s - self.attributed_s()
    }

    /// The residual as a percentage of the total.
    pub fn residual_pct(&self) -> f64 {
        if self.total_s > 0.0 {
            100.0 * self.residual_s() / self.total_s
        } else {
            0.0
        }
    }

    /// Whether the residual stays within [`RESIDUAL_BOUND_PCT`] either way.
    pub fn within_bound(&self) -> bool {
        self.residual_pct().abs() <= RESIDUAL_BOUND_PCT
    }

    /// The printed ledger: one line per layer plus the residual.
    pub fn render(&self) -> String {
        let mut out = format!("ledger: {} = {:.6} s\n", self.what, self.total_s);
        for (name, s) in &self.layers {
            let share = if self.total_s > 0.0 {
                100.0 * s / self.total_s
            } else {
                0.0
            };
            out.push_str(&format!("  {name:<28} {s:>12.6} s  {share:>6.2}%\n"));
        }
        out.push_str(&format!(
            "  {:<28} {:>12.6} s  {:>6.2}%  (bound ±{RESIDUAL_BOUND_PCT}%: {})\n",
            "residual",
            self.residual_s(),
            self.residual_pct(),
            if self.within_bound() {
                "ok"
            } else {
                "EXCEEDED"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sums_and_residual() {
        let l = Ledger::new("run", 10.0).layer("a", 4.0).layer("b", 5.0);
        assert_eq!(l.attributed_s(), 9.0);
        assert!((l.residual_s() - 1.0).abs() < 1e-12);
        assert!((l.residual_pct() - 10.0).abs() < 1e-9);
        assert!(l.within_bound());
        assert!(l.render().contains("residual"));
    }

    #[test]
    fn residual_bound_applies_both_ways() {
        let under = Ledger::new("run", 10.0).layer("a", 8.5);
        assert!(!under.within_bound(), "15% unattributed");
        let over = Ledger::new("run", 10.0).layer("a", 11.5);
        assert!((over.residual_pct() + 15.0).abs() < 1e-9);
        assert!(!over.within_bound(), "layers overlap by 15%");
        let empty = Ledger::new("run", 0.0);
        assert_eq!(empty.residual_pct(), 0.0);
    }
}
