//! Output checks: committed snapshot goldens for the default seed, and
//! analytic invariants for every seed. A failed check is never silent:
//! every operation whose output fails one counts as failed.

/// Probed output values of one operation, by name.
pub type Probes = Vec<(String, f64)>;

/// One committed snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// Workload the value belongs to.
    pub workload: String,
    /// Probe name.
    pub probe: String,
    /// Expected value.
    pub value: f64,
}

/// Relative tolerance of the snapshot goldens.
pub const SNAPSHOT_RTOL: f64 = 1e-9;

/// Accumulated check results.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a boolean check.
    pub fn that(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{what}: {}", detail()));
        }
    }

    /// Checks `|got − want| ≤ rtol·|want|` (and that `got` is finite).
    pub fn close(&mut self, what: &str, got: f64, want: f64, rtol: f64) {
        let ok = got.is_finite() && (got - want).abs() <= rtol * want.abs();
        self.that(what, ok, || {
            format!(
                "got {got:e}, want {want:e} (rel err {:e} > {rtol:e})",
                (got - want).abs() / want.abs()
            )
        });
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Looks up a probe by name.
pub fn probe(probes: &Probes, name: &str) -> Option<f64> {
    probes.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Checks `probes` against every golden of `workload`.
pub fn check_snapshot(checks: &mut Checks, workload: &str, probes: &Probes, goldens: &[Golden]) {
    for g in goldens.iter().filter(|g| g.workload == workload) {
        let what = format!("snapshot {}", g.probe);
        match probe(probes, &g.probe) {
            Some(got) => checks.close(&what, got, g.value, SNAPSHOT_RTOL),
            None => checks.that(&what, false, || "probe missing from the output".into()),
        }
    }
}

/// The committed snapshot goldens, recorded at
/// [`crate::inputs::DEFAULT_SEED`] on the full-size workloads with
/// `perfbench --print-probes <workload>`.
pub fn committed() -> Vec<Golden> {
    SNAPSHOT
        .iter()
        .map(|(w, p, v)| Golden {
            workload: (*w).to_string(),
            probe: (*p).to_string(),
            value: *v,
        })
        .collect()
}

const SNAPSHOT: &[(&str, &str, f64)] = &[
    ("grid_cold", "op:v(n100_100)", 6.497295063939046e-1),
    ("grid_cold", "ac:v(n100_100):peak_mag", 1.475910474820478e-1),
    ("grid_cold", "ac:v(n100_100):f_peak", 1e4),
    ("grid_cold", "lu_factorizations", 1.8e1),
    ("grid_cold", "points", 1.1e1),
    ("grid_tran", "op:v(n24_24)", 0e0),
    ("grid_tran", "tran:v(n24_24):settled", 8.639113433451837e-1),
    ("grid_tran", "tran:v(n24_24):peak", 8.987584568393958e-1),
    ("grid_tran", "tran:v(n24_24):rms", 8.629436552988133e-1),
    ("grid_tran", "lu_factorizations", 2.844e3),
    ("grid_tran", "points", 1.386e3),
    ("hdl_mc", "p0:param:vbias", 1.0599223420239436e1),
    ("hdl_mc", "p0:param:k", 1.9280801713127136e2),
    ("hdl_mc", "p0:tran:v(vel):peak", 4.323625234091846e-6),
    ("hdl_mc", "p0:tran:i(kk1,0):settled", 2.210085437250099e-6),
    ("hdl_mc", "p0:tran:i(kk1,0):peak", 2.6638216197638856e-6),
    ("hdl_mc", "p57:param:vbias", 1.059072911731861e1),
    ("hdl_mc", "p57:param:k", 2.077445084314046e2),
    ("hdl_mc", "p57:tran:v(vel):peak", 3.966416276145744e-6),
    ("hdl_mc", "p57:tran:i(kk1,0):settled", 2.206613886308659e-6),
    ("hdl_mc", "p57:tran:i(kk1,0):peak", 2.642105132294092e-6),
    ("hdl_mc", "p123:param:vbias", 9.594722719718263e0),
    ("hdl_mc", "p123:param:k", 1.9215883835203752e2),
    ("hdl_mc", "p123:tran:v(vel):peak", 3.556834555850403e-6),
    (
        "hdl_mc",
        "p123:tran:i(kk1,0):settled",
        1.8110931591223876e-6,
    ),
    ("hdl_mc", "p123:tran:i(kk1,0):peak", 2.1835834226569515e-6),
    ("hdl_mc", "p199:param:vbias", 9.778434202223792e0),
    ("hdl_mc", "p199:param:k", 2.0874177108279878e2),
    ("hdl_mc", "p199:tran:v(vel):peak", 3.363364393029765e-6),
    (
        "hdl_mc",
        "p199:tran:i(kk1,0):settled",
        1.8811681086521131e-6,
    ),
    ("hdl_mc", "p199:tran:i(kk1,0):peak", 2.251500575175753e-6),
    (
        "serve_mix",
        "resonator_step:p0:tran:i(kk,0):peak",
        1.432163643531e-6,
    ),
    (
        "serve_mix",
        "resonator_step:p0:tran:i(kk,0):settled",
        9.995960782568e-7,
    ),
    (
        "serve_mix",
        "resonator_step:p1:tran:i(kk,0):peak",
        1.429368902911e-6,
    ),
    (
        "serve_mix",
        "resonator_step:p1:tran:i(kk,0):settled",
        1.000055070962e-6,
    ),
    (
        "serve_mix",
        "resonator_step:p2:tran:i(kk,0):peak",
        1.423962592523e-6,
    ),
    (
        "serve_mix",
        "resonator_step:p2:tran:i(kk,0):settled",
        1.000337882933e-6,
    ),
    (
        "serve_mix",
        "resonator_step:p3:tran:i(kk,0):peak",
        1.416947721817e-6,
    ),
    (
        "serve_mix",
        "resonator_step:p3:tran:i(kk,0):settled",
        9.996726111815e-7,
    ),
    (
        "serve_mix",
        "resonator_step:p4:tran:i(kk,0):peak",
        1.40895074252e-6,
    ),
    (
        "serve_mix",
        "resonator_step:p4:tran:i(kk,0):settled",
        9.999128032043e-7,
    ),
    (
        "serve_mix",
        "bridge_cells:p0:tran:i(x1.kk,0):peak",
        2.380101411007e-6,
    ),
    (
        "serve_mix",
        "bridge_cells:p0:tran:i(x1.kk,0):settled",
        1.966960792051e-6,
    ),
    (
        "serve_mix",
        "bridge_cells:p1:tran:i(x1.kk,0):peak",
        2.309763122604e-6,
    ),
    (
        "serve_mix",
        "bridge_cells:p1:tran:i(x1.kk,0):settled",
        1.967384367841e-6,
    ),
    (
        "serve_mix",
        "bridge_cells:p2:tran:i(x1.kk,0):peak",
        2.265409587569e-6,
    ),
    (
        "serve_mix",
        "bridge_cells:p2:tran:i(x1.kk,0):settled",
        1.967505720837e-6,
    ),
    (
        "serve_mix",
        "eletran_transient:p0:tran:i(kk1,0):peak",
        2.363387869206e-6,
    ),
    (
        "serve_mix",
        "eletran_transient:p0:tran:i(kk1,0):settled",
        1.967328745444e-6,
    ),
    (
        "serve_mix",
        "eletran_transient:p0:tran:v(vel):peak",
        3.691160989392e-6,
    ),
    (
        "serve_mix",
        "speaker_ac:p0:ac:v(cone):f_peak",
        2.159550324655e2,
    ),
    (
        "serve_mix",
        "speaker_ac:p0:ac:v(cone):peak_mag",
        6.702289572187e-1,
    ),
    (
        "serve_mix",
        "relay_pull_in:p0:dc:i(xrelay,0):last",
        4.405420316934e-7,
    ),
    (
        "serve_mix",
        "grid_cells:p0:ac:v(n3_3):peak_mag",
        3.649884621933e-1,
    ),
    ("serve_mix", "grid_cells:p0:op:v(n3_3)", 1.814669690409e0),
    (
        "serve_mix",
        "grid_cells:p1:ac:v(n3_3):peak_mag",
        3.495792091907e-1,
    ),
    ("serve_mix", "grid_cells:p1:op:v(n3_3)", 1.692443465382e0),
    (
        "serve_mix",
        "grid_cells:p2:ac:v(n3_3):peak_mag",
        3.371156269002e-1,
    ),
    ("serve_mix", "grid_cells:p2:op:v(n3_3)", 1.586413896296e0),
    (
        "serve_mix",
        "grid_cells:p3:ac:v(n3_3):peak_mag",
        3.269545302338e-1,
    ),
    ("serve_mix", "grid_cells:p3:op:v(n3_3)", 1.493452065455e0),
    (
        "serve_mix",
        "grid_cells:p4:ac:v(n3_3):peak_mag",
        3.186192259609e-1,
    ),
    ("serve_mix", "grid_cells:p4:op:v(n3_3)", 1.411206012539e0),
];
