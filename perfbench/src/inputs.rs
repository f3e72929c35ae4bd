//! Seeded input generation. Every deck a workload feeds the program is
//! built here from `--seed`; the program only ever sees the generated
//! text. The shipped example decks are vendored under `decks/`, so a
//! later edit to the repository's examples cannot silently change the
//! benchmark's inputs.

use crate::util::Rng;
use mems_netlist::gen::{grid_deck_with, GridDeckOptions};
use std::path::PathBuf;

/// The seed the committed snapshot goldens were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// A deck shipped with the repository's examples.
#[derive(Debug, Clone, Copy)]
pub struct ShippedDeck {
    /// File stem, used in reports and golden names.
    pub name: &'static str,
    /// Deck source.
    pub text: &'static str,
}

/// Listing 1 (`eletran`) driving the Fig. 3 resonator with a pulse.
pub const ELETRAN: ShippedDeck = ShippedDeck {
    name: "eletran_transient",
    text: include_str!("../decks/eletran_transient.cir"),
};

/// The decks `serve_mix` draws from, in a fixed order.
pub const SERVE_DECKS: [ShippedDeck; 6] = [
    ShippedDeck {
        name: "resonator_step",
        text: include_str!("../decks/resonator_step.cir"),
    },
    ShippedDeck {
        name: "bridge_cells",
        text: include_str!("../decks/bridge_cells.cir"),
    },
    ELETRAN,
    ShippedDeck {
        name: "speaker_ac",
        text: include_str!("../decks/speaker_ac.cir"),
    },
    ShippedDeck {
        name: "relay_pull_in",
        text: include_str!("../decks/relay_pull_in.cir"),
    },
    ShippedDeck {
        name: "grid_cells",
        text: include_str!("../decks/grid_cells.cir"),
    },
];

/// Directory holding `cells.lib`, the fragment `bridge_cells` includes.
pub fn decks_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("decks")
}

/// Size and analyses of a generated grid deck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridShape {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// `.OP` + `.TRAN` with a pulse drive when set, `.OP` + `.AC`
    /// otherwise.
    pub tran: bool,
}

/// `grid_cold`: 101×101, `.OP` + `.AC dec 3 10 10k`, n = 50602.
pub const GRID_COLD: GridShape = GridShape {
    rows: 101,
    cols: 101,
    tran: false,
};

/// `grid_tran`: 25×25 with the pulse drive and `.TRAN 0.2m 4m`, n = 3026.
pub const GRID_TRAN: GridShape = GridShape {
    rows: 25,
    cols: 25,
    tran: true,
};

/// The seeded cell parameters of a grid deck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridParams {
    /// Cell resistance, whole ohms in 800..=1200.
    pub rcell: u64,
    /// Gyrator transconductance in units of 1e-7 S, 1500..=2500.
    pub gm_e7: u64,
}

/// Draws the grid cell parameters from the seed.
pub fn grid_params(seed: u64) -> GridParams {
    let mut rng = Rng::new(seed, 1);
    GridParams {
        rcell: 800 + rng.next_u64() % 401,
        gm_e7: 1500 + rng.next_u64() % 1001,
    }
}

/// The parameter line `gen::grid_deck_with` writes; the seed replaces it.
const GRID_PARAM_LINE: &str = ".param rcell=1k ccell=10n gm=2e-4\n";

/// Generates the grid deck of `shape` through the program's own
/// generator, with the seed's `rcell`/`gm`.
///
/// # Errors
///
/// When the generator no longer writes the parameter line the seed
/// replaces (the seed would otherwise silently stop mattering).
pub fn grid_deck(shape: GridShape, seed: u64) -> Result<String, String> {
    let opts = GridDeckOptions {
        ac: !shape.tran,
        tran: shape.tran,
        ..GridDeckOptions::default()
    };
    let text = grid_deck_with(shape.rows, shape.cols, &opts);
    if !text.contains(GRID_PARAM_LINE) {
        return Err("generated grid deck lacks its `.param rcell=…` line".into());
    }
    let p = grid_params(seed);
    Ok(text.replacen(
        GRID_PARAM_LINE,
        &format!(".param rcell={} ccell=10n gm={}e-7\n", p.rcell, p.gm_e7),
        1,
    ))
}

/// Monte Carlo points per `hdl_mc` iteration.
pub const MC_POINTS: usize = 200;

/// The `.MC` seed written into the `hdl_mc` deck (52 bits, so the
/// deck's floating-point expression holds it exactly).
pub fn mc_seed(seed: u64) -> u64 {
    Rng::new(seed, 2).next_u64() >> 12
}

/// The Listing-1 transient deck plus
/// `.MC <points> SEED=<s> vbias TOL=0.1 k TOL=0.05`.
///
/// # Errors
///
/// When the vendored deck has no `.END` card to insert before.
pub fn hdl_mc_deck(seed: u64, points: usize) -> Result<String, String> {
    let card = format!(
        ".MC {points} SEED={} vbias TOL=0.1 k TOL=0.05\n.END\n",
        mc_seed(seed)
    );
    if !ELETRAN.text.contains(".END\n") {
        return Err("eletran deck has no `.END` card".into());
    }
    Ok(ELETRAN.text.replacen(".END\n", &card, 1))
}

/// One `serve_mix` submission: a deck index into [`SERVE_DECKS`] and,
/// for one submission in four, a nonce that changes a comment line so
/// the artifact cache misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Index into [`SERVE_DECKS`].
    pub deck: usize,
    /// Cache-busting nonce, when this submission is a variant.
    pub variant: Option<u64>,
}

impl Submission {
    /// The deck text this submission sends.
    pub fn text(&self) -> String {
        let src = SERVE_DECKS[self.deck].text;
        match self.variant {
            None => src.to_string(),
            Some(nonce) => {
                // The title line stays; a new comment line after it
                // changes the source text (and so the cache key) but
                // not the circuit.
                let (title, rest) = src.split_once('\n').unwrap_or((src, ""));
                format!("{title}\n* resubmission {nonce}\n{rest}")
            }
        }
    }
}

/// A client's endless, seeded submission sequence. Draws are
/// stratified: every block of 24 holds each deck four times, one of
/// them a variant, in a seeded order — so the job mix is the same for
/// every seed and only the order changes.
#[derive(Debug, Clone)]
pub struct SubmissionStream {
    rng: Rng,
    client: u64,
    block: Vec<Submission>,
    issued: u64,
}

impl SubmissionStream {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        SubmissionStream {
            rng: Rng::new(seed, 10 + client),
            client,
            block: Vec::new(),
            issued: 0,
        }
    }

    /// Whether every block drawn so far is complete — stopping here
    /// keeps the job mix exactly stratified.
    pub fn at_block_boundary(&self) -> bool {
        self.block.is_empty()
    }
}

impl Iterator for SubmissionStream {
    type Item = Submission;

    fn next(&mut self) -> Option<Submission> {
        if self.block.is_empty() {
            for deck in 0..SERVE_DECKS.len() {
                for copy in 0..4 {
                    self.block.push(Submission {
                        deck,
                        variant: (copy == 0).then_some(0),
                    });
                }
            }
            self.rng.shuffle(&mut self.block);
        }
        let mut sub = self.block.pop().expect("block refilled above");
        self.issued += 1;
        if sub.variant.is_some() {
            sub.variant = Some(self.client << 40 | self.issued);
        }
        Some(sub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_change_only_a_comment() {
        let sub = Submission {
            deck: 2,
            variant: Some(9),
        };
        let text = sub.text();
        assert_ne!(text, ELETRAN.text);
        let a = mems_netlist::Deck::parse(&text).expect("variant parses");
        let b = mems_netlist::Deck::parse(ELETRAN.text).expect("deck parses");
        assert_eq!(a.title, b.title);
        assert_eq!(a.devices.len(), b.devices.len());
    }

    #[test]
    fn blocks_are_stratified() {
        let subs: Vec<Submission> = SubmissionStream::new(3, 0).take(24).collect();
        for deck in 0..SERVE_DECKS.len() {
            let of_deck: Vec<_> = subs.iter().filter(|s| s.deck == deck).collect();
            assert_eq!(of_deck.len(), 4);
            assert_eq!(of_deck.iter().filter(|s| s.variant.is_some()).count(), 1);
        }
    }
}
