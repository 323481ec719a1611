//! Vetted search seeds.
//!
//! Some search paths reach states whose query-context computation runs for seconds: on
//! `live-edit` one 32-iteration refine took 14 s and one whole run over 200 s; on `oneshot`
//! one seed's run took half as long again as the others. A run would then measure which
//! seeds it drew, or overrun its time limit. So each workload draws its search seeds from
//! a table: per slot (one position of the stratified log stream), [`CANDIDATES`] candidate
//! seeds, of which the ones that stayed clear of the blow-up are marked clean, and a run's
//! seed picks among those.
//!
//! The tables were vetted by running every candidate on its own, in a child process
//! written off after 20 s (one blown-up context computation cannot be interrupted from
//! inside), and marking it clean when every request stayed within the workload's limit:
//! 2 s for a `oneshot` `generate`, 1 s for any `live-edit` request. 2 of 336 `oneshot`
//! candidates and 9 of 168 `live-edit` candidates failed. A change to the search, the
//! corpus or the seed derivation changes which candidates blow up, so such a change that
//! redefines the benchmark vets the tables again.

use crate::inputs::mix;

/// Candidate search seeds per slot.
pub const CANDIDATES: u64 = 8;

/// A workload's vetted seed table: bit `c` of entry `i` is set when candidate `c` of slot
/// `i` is clean.
pub struct Table(pub &'static [u8]);

impl Table {
    /// The `(slot, candidate)` unit `j` of a run with `seed` uses: slot `j % slots`, and a
    /// clean candidate of it that `seed` picks.
    pub fn pick(&self, seed: u64, j: usize) -> (usize, u64) {
        let slot = j % self.0.len();
        let clean: Vec<u64> = (0..CANDIDATES)
            .filter(|c| self.0[slot] >> c & 1 == 1)
            .collect();
        let pick = mix(seed, j as u64) % clean.len() as u64;
        (slot, clean[pick as usize])
    }
}
