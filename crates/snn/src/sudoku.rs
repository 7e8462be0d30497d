//! The Sudoku use case: classical grid machinery, a hard-puzzle corpus
//! (stand-in for the paper's magictour "Top 100"), and the 729-neuron
//! Winner-Takes-All network of Fig. 4.
//!
//! Network construction follows the paper exactly: one neuron per
//! `(row, col, digit)` triple; when a neuron spikes it inhibits every
//! neuron representing (a) another digit in the same cell, (b) the same
//! digit elsewhere in the same row, (c) the same digit elsewhere in the
//! same column, and (d) the same digit elsewhere in the same 3×3 subgrid.
//! Given clues receive a strong constant bias; all neurons receive noisy
//! background drive plus weak self-excitation, so the network performs a
//! stochastic constraint search whose fixed points are valid Sudoku
//! configurations.

use izhi_core::params::IzhParams;

use crate::analysis::SpikeRaster;
use crate::network::Network;
use crate::noise::XorShift32;
use crate::simulate::FixedSimulator;

/// A 9×9 Sudoku grid; 0 = empty cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SudokuGrid(pub [u8; 81]);

impl SudokuGrid {
    /// Parse from an 81-character string; `0` or `.` are empty.
    pub fn parse(s: &str) -> Option<SudokuGrid> {
        let chars: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
        if chars.len() != 81 {
            return None;
        }
        let mut g = [0u8; 81];
        for (i, c) in chars.iter().enumerate() {
            g[i] = match c {
                '.' | '0' => 0,
                '1'..='9' => *c as u8 - b'0',
                _ => return None,
            };
        }
        Some(SudokuGrid(g))
    }

    /// Cell accessor (row, col in 0..9).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.0[r * 9 + c]
    }

    /// Cell mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, d: u8) {
        self.0[r * 9 + c] = d;
    }

    /// Number of given (non-empty) cells.
    pub fn n_givens(&self) -> usize {
        self.0.iter().filter(|&&d| d != 0).count()
    }

    /// Is placing `d` at `(r, c)` consistent with the current grid?
    pub fn placement_ok(&self, r: usize, c: usize, d: u8) -> bool {
        for i in 0..9 {
            if self.get(r, i) == d && i != c {
                return false;
            }
            if self.get(i, c) == d && i != r {
                return false;
            }
        }
        let (br, bc) = (r / 3 * 3, c / 3 * 3);
        for i in 0..3 {
            for j in 0..3 {
                let (rr, cc) = (br + i, bc + j);
                if self.get(rr, cc) == d && (rr, cc) != (r, c) {
                    return false;
                }
            }
        }
        true
    }

    /// Is the grid completely filled and rule-consistent?
    pub fn is_solved(&self) -> bool {
        self.0.iter().all(|&d| d != 0)
            && (0..81).all(|i| self.placement_ok(i / 9, i % 9, self.0[i]))
    }

    /// Are the filled cells mutually consistent (ignores empties)?
    pub fn is_consistent(&self) -> bool {
        (0..81).all(|i| self.0[i] == 0 || self.placement_ok(i / 9, i % 9, self.0[i]))
    }

    /// Does `self` extend `puzzle` (every given preserved)?
    pub fn extends(&self, puzzle: &SudokuGrid) -> bool {
        (0..81).all(|i| puzzle.0[i] == 0 || puzzle.0[i] == self.0[i])
    }

    /// Backtracking solver. Returns the first solution found.
    pub fn solve(&self) -> Option<SudokuGrid> {
        let mut g = *self;
        (g.search(1) == 1).then_some(g)
    }

    /// Count solutions up to `limit` (for uniqueness checks).
    pub fn count_solutions(&self, limit: usize) -> usize {
        let mut g = *self;
        g.search(limit)
    }

    /// The constraint search behind [`SudokuGrid::solve`] and
    /// [`SudokuGrid::count_solutions`]: counts solutions up to `limit`,
    /// leaving the grid filled with the last one counted if it reaches
    /// `limit` and unchanged otherwise. An inconsistent grid has none.
    fn search(&mut self, limit: usize) -> usize {
        if limit == 0 {
            return 0;
        }
        // Used-digit masks (bit `d - 1`): rows, then columns, then boxes.
        let mut used = [0u16; 27];
        for (i, &d) in self.0.iter().enumerate().filter(|(_, &d)| d != 0) {
            let bit = 1 << (d - 1);
            if units(i).iter().any(|&u| used[u] & bit != 0) {
                return 0;
            }
            units(i).iter().for_each(|&u| used[u] |= bit);
        }
        self.descend(&mut used, limit)
    }

    fn descend(&mut self, used: &mut [u16; 27], limit: usize) -> usize {
        // Most-constrained cell: fewest candidates, lowest index on ties,
        // taking the first forced cell outright.
        let mut best: Option<(usize, u16)> = None;
        for i in (0..81).filter(|&i| self.0[i] == 0) {
            let [r, c, b] = units(i);
            let cands = !(used[r] | used[c] | used[b]) & 0x1FF;
            if cands == 0 {
                return 0;
            }
            if best.is_none_or(|(_, m)| cands.count_ones() < m.count_ones()) {
                best = Some((i, cands));
                if cands.count_ones() == 1 {
                    break;
                }
            }
        }
        let Some((i, mut cands)) = best else {
            return 1; // no empty cells left
        };
        // Digits in ascending order until `limit` solutions are found.
        let mut found = 0;
        while cands != 0 && found < limit {
            let bit = cands & cands.wrapping_neg();
            cands ^= bit;
            self.0[i] = bit.trailing_zeros() as u8 + 1;
            units(i).iter().for_each(|&u| used[u] |= bit);
            found += self.descend(used, limit - found);
            units(i).iter().for_each(|&u| used[u] &= !bit);
        }
        if found < limit {
            self.0[i] = 0;
        }
        found
    }

    /// A canonical valid complete grid (the shift pattern).
    pub fn canonical_solution() -> SudokuGrid {
        let mut g = [0u8; 81];
        for r in 0..9 {
            for c in 0..9 {
                g[r * 9 + c] = ((r * 3 + r / 3 + c) % 9 + 1) as u8;
            }
        }
        SudokuGrid(g)
    }

    /// Generate a random complete grid by seeded randomized backtracking.
    pub fn random_solution(seed: u32) -> SudokuGrid {
        let mut rng = XorShift32::new(seed);
        let mut g = SudokuGrid([0; 81]);
        g.fill_random(&mut rng);
        g
    }

    fn fill_random(&mut self, rng: &mut XorShift32) -> bool {
        let Some(i) = (0..81).find(|&i| self.0[i] == 0) else {
            return true;
        };
        let (r, c) = (i / 9, i % 9);
        let mut digits: Vec<u8> = (1..=9).collect();
        // Fisher-Yates shuffle.
        for k in (1..digits.len()).rev() {
            let j = (rng.next_u32() as usize) % (k + 1);
            digits.swap(k, j);
        }
        for d in digits {
            if self.placement_ok(r, c, d) {
                self.0[i] = d;
                if self.fill_random(rng) {
                    return true;
                }
                self.0[i] = 0;
            }
        }
        false
    }

    /// Generate a puzzle by digging cells from a random solution while the
    /// solution stays unique. `target_givens` bounds the difficulty (17 is
    /// the theoretical minimum; ~22-26 gives hard puzzles).
    pub fn generate(seed: u32, target_givens: usize) -> SudokuGrid {
        let solution = SudokuGrid::random_solution(seed);
        let mut puzzle = solution;
        let mut rng = XorShift32::new(seed ^ 0x9E37_79B9);
        let mut order: Vec<usize> = (0..81).collect();
        for k in (1..order.len()).rev() {
            let j = (rng.next_u32() as usize) % (k + 1);
            order.swap(k, j);
        }
        for &i in &order {
            if puzzle.n_givens() <= target_givens {
                break;
            }
            let saved = puzzle.0[i];
            puzzle.0[i] = 0;
            if puzzle.count_solutions(2) != 1 {
                puzzle.0[i] = saved; // removal breaks uniqueness; keep it
            }
        }
        puzzle
    }
}

/// Cell `i`'s row, column and box as indices into the search's masks.
fn units(i: usize) -> [usize; 3] {
    let (r, c) = (i / 9, i % 9);
    [r, 9 + c, 18 + r / 3 * 3 + c / 3]
}

impl core::fmt::Display for SudokuGrid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for r in 0..9 {
            for c in 0..9 {
                let d = self.get(r, c);
                write!(f, "{}", if d == 0 { '.' } else { (b'0' + d) as char })?;
                if c == 2 || c == 5 {
                    write!(f, "|")?;
                }
            }
            writeln!(f)?;
            if r == 2 || r == 5 {
                writeln!(f, "---+---+---")?;
            }
        }
        Ok(())
    }
}

/// Puzzle `k` of the hard corpus: a 24-given generated puzzle with a
/// unique solution.
pub fn hard_puzzle(k: usize) -> SudokuGrid {
    SudokuGrid::generate(1000 + k as u32, 24)
}

/// A deterministic corpus of `n` hard generated puzzles (the reproduction's
/// stand-in for the magictour Top-100 list, which is not redistributable
/// with this code).
pub fn hard_corpus(n: usize) -> Vec<SudokuGrid> {
    (0..n).map(hard_puzzle).collect()
}

/// The 729-neuron Winner-Takes-All Sudoku network.
#[derive(Debug, Clone)]
pub struct WtaNetwork {
    /// The inhibitory constraint network (plus weak self-excitation).
    pub network: Network,
    /// Constant bias per neuron encoding the givens.
    pub bias: Vec<f64>,
    /// Background noise std per neuron.
    pub noise_std: Vec<f64>,
}

/// Tunable WTA construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct WtaParams {
    /// Inhibitory weight between digits of the *same cell* (strong: makes
    /// each cell a hard winner-takes-all).
    pub w_cell: f64,
    /// Inhibitory weight between *constraint peers* (same digit in the
    /// same row/column/box; softer, provides the consistency gradient).
    pub w_inhibit: f64,
    /// Self-excitation weight sustaining winners.
    pub w_self: f64,
    /// Bias for given-clue neurons.
    pub bias_given: f64,
    /// Bias for free neurons.
    pub bias_free: f64,
    /// Background noise std.
    pub noise_std: f64,
    /// DCU τ selector for the synaptic-current decay (1..9). Large values
    /// make inhibition long-lasting, which the WTA search needs for
    /// hysteresis.
    pub tau: u32,
    /// Annealing period in ms (0 disables): noise amplitude ramps from
    /// [`WtaParams::anneal_hot`] down to [`WtaParams::anneal_cold`] every
    /// period, giving the stochastic search repeated exploration/quench
    /// cycles.
    pub anneal_period: u32,
    /// Noise multiplier at the start of each annealing cycle.
    pub anneal_hot: f64,
    /// Noise multiplier at the end of each annealing cycle.
    pub anneal_cold: f64,
}

impl Default for WtaParams {
    fn default() -> Self {
        WtaParams {
            w_cell: -25.0,
            w_inhibit: -6.0,
            w_self: 0.0,
            bias_given: 20.0,
            bias_free: 8.0,
            noise_std: 10.0,
            tau: 4,
            anneal_period: 0,
            anneal_hot: 1.3,
            anneal_cold: 0.4,
        }
    }
}

impl WtaParams {
    /// The per-tick noise-amplitude schedule implementing the annealing
    /// cycles (empty when disabled).
    pub fn noise_schedule(&self) -> Vec<f64> {
        if self.anneal_period == 0 {
            return Vec::new();
        }
        let p = self.anneal_period as usize;
        (0..p)
            .map(|t| {
                let phase = t as f64 / p as f64;
                self.anneal_hot + (self.anneal_cold - self.anneal_hot) * phase
            })
            .collect()
    }
}

impl WtaNetwork {
    /// Index of the neuron for `(row, col, digit)` (digit in 1..=9).
    #[inline]
    pub fn neuron(r: usize, c: usize, d: u8) -> usize {
        r * 81 + c * 9 + (d as usize - 1)
    }

    /// Inverse of [`WtaNetwork::neuron`]: `(row, col, digit)`.
    #[inline]
    pub fn coords(idx: usize) -> (usize, usize, u8) {
        (idx / 81, (idx / 9) % 9, (idx % 9 + 1) as u8)
    }

    /// All neurons inhibited by a spike of `(r, c, d)` (Fig. 4):
    /// the union of [`WtaNetwork::cell_rivals`] and
    /// [`WtaNetwork::constraint_peers`].
    pub fn conflict_set(r: usize, c: usize, d: u8) -> Vec<usize> {
        let mut out = Self::cell_rivals(r, c, d);
        out.extend(Self::constraint_peers(r, c, d));
        out
    }

    /// The other eight digits of the same cell.
    pub fn cell_rivals(r: usize, c: usize, d: u8) -> Vec<usize> {
        (1..=9u8)
            .filter(|&dd| dd != d)
            .map(|dd| Self::neuron(r, c, dd))
            .collect()
    }

    /// Same digit in the same row, column or 3x3 box (20 peers).
    pub fn constraint_peers(r: usize, c: usize, d: u8) -> Vec<usize> {
        let mut out = Vec::with_capacity(20);
        // (b) same digit, same row
        for cc in 0..9 {
            if cc != c {
                out.push(Self::neuron(r, cc, d));
            }
        }
        // (c) same digit, same column
        for rr in 0..9 {
            if rr != r {
                out.push(Self::neuron(rr, c, d));
            }
        }
        // (d) same digit, rest of the 3x3 subgrid
        let (br, bc) = (r / 3 * 3, c / 3 * 3);
        for rr in br..br + 3 {
            for cc in bc..bc + 3 {
                if rr != r && cc != c {
                    out.push(Self::neuron(rr, cc, d));
                }
            }
        }
        out
    }

    /// Build the WTA network for a puzzle.
    pub fn build(puzzle: &SudokuGrid, p: WtaParams) -> Self {
        let params = vec![IzhParams::fast_spiking(); 729];
        let mut edges = Vec::with_capacity(729 * 29);
        for r in 0..9 {
            for c in 0..9 {
                for d in 1..=9u8 {
                    let pre = Self::neuron(r, c, d) as u32;
                    for post in Self::cell_rivals(r, c, d) {
                        edges.push((pre, post as u32, p.w_cell));
                    }
                    for post in Self::constraint_peers(r, c, d) {
                        edges.push((pre, post as u32, p.w_inhibit));
                    }
                    edges.push((pre, pre, p.w_self));
                }
            }
        }
        let mut bias = vec![p.bias_free; 729];
        let mut noise_std = vec![p.noise_std; 729];
        for r in 0..9 {
            for c in 0..9 {
                let given = puzzle.get(r, c);
                if given != 0 {
                    for d in 1..=9u8 {
                        let i = Self::neuron(r, c, d);
                        if d == given {
                            bias[i] = p.bias_given;
                            noise_std[i] = 0.0;
                        } else {
                            // Rivals of a clue are silenced outright.
                            bias[i] = -10.0;
                            noise_std[i] = 0.0;
                        }
                    }
                }
            }
        }
        WtaNetwork {
            network: Network::from_edges(params, edges),
            bias,
            noise_std,
        }
    }

    /// Decode a grid from per-neuron spike counts over a window: for each
    /// cell, the digit whose neuron fired most (0 if the cell was silent).
    pub fn decode(counts: &[u32]) -> SudokuGrid {
        let mut g = SudokuGrid([0; 81]);
        for r in 0..9 {
            for c in 0..9 {
                let mut best = 0u8;
                let mut best_count = 0u32;
                for d in 1..=9u8 {
                    let k = counts[Self::neuron(r, c, d)];
                    if k > best_count {
                        best_count = k;
                        best = d;
                    }
                }
                if best_count > 0 {
                    g.set(r, c, best);
                }
            }
        }
        g
    }
}

/// Outcome of a WTA solver run.
#[derive(Debug, Clone)]
pub struct WtaSolveResult {
    /// The decoded solution, if the network converged to a valid one.
    pub solution: Option<SudokuGrid>,
    /// Simulated milliseconds consumed.
    pub steps: u32,
    /// The full raster (for inspection).
    pub raster: SpikeRaster,
}

/// Run the fixed-point WTA solver on `puzzle` for at most `max_ms`
/// 1 ms timesteps, checking for convergence every `check_every` ms over a
/// sliding decode window.
pub fn solve_wta(
    puzzle: &SudokuGrid,
    p: WtaParams,
    seed: u32,
    max_ms: u32,
    check_every: u32,
) -> WtaSolveResult {
    let wta = WtaNetwork::build(puzzle, p);
    let mut sim = FixedSimulator::new(&wta.network, p.tau, seed);
    sim.pin = true; // §V-B: pinning improves Sudoku convergence
    sim.bias.copy_from_slice(&wta.bias);
    sim.noise_std.copy_from_slice(&wta.noise_std);
    sim.noise_schedule = p.noise_schedule();

    let window = check_every.max(20);
    let mut raster = SpikeRaster::new(729, max_ms);
    let mut counts = vec![0u32; 729];
    let mut window_start = 0;
    for t in 0..max_ms {
        for i in sim.step() {
            raster.push(t, i);
            counts[i as usize] += 1;
        }
        if t + 1 - window_start >= window {
            let decoded = WtaNetwork::decode(&counts);
            if decoded.is_solved() && decoded.extends(puzzle) {
                raster.n_steps = t + 1;
                return WtaSolveResult {
                    solution: Some(decoded),
                    steps: t + 1,
                    raster,
                };
            }
            counts.iter_mut().for_each(|c| *c = 0);
            window_start = t + 1;
        }
    }
    WtaSolveResult {
        solution: None,
        steps: max_ms,
        raster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference counter: first empty cell, ascending digits, each
    /// placement re-checked against the grid. Slow but obviously right.
    fn naive_count(g: &mut SudokuGrid, limit: usize, count: &mut usize) {
        if *count >= limit {
            return;
        }
        let Some(i) = (0..81).find(|&i| g.0[i] == 0) else {
            *count += 1;
            return;
        };
        for d in 1..=9 {
            if g.placement_ok(i / 9, i % 9, d) {
                g.0[i] = d;
                naive_count(g, limit, count);
                g.0[i] = 0;
                if *count >= limit {
                    return;
                }
            }
        }
    }

    fn grid(s: &str) -> SudokuGrid {
        SudokuGrid::parse(s).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// `count_solutions` agrees with the reference counter on partial
        /// grids cut from a solution, where about one copied cell in 48
        /// gets an arbitrary digit instead (often inconsistent or
        /// unsolvable).
        #[test]
        fn count_solutions_matches_the_reference(
            seed in 1u32..100_000,
            cells in proptest::collection::vec((0usize..81, 0u8..10, 0u32..48), 20..100),
        ) {
            let sol = SudokuGrid::random_solution(seed);
            let mut g = SudokuGrid([0; 81]);
            for &(i, d, roll) in &cells {
                g.0[i] = if roll == 0 { d } else { sol.0[i] };
            }
            for limit in 1..=3 {
                let mut want = 0;
                if g.is_consistent() {
                    naive_count(&mut { g }, limit, &mut want);
                }
                prop_assert_eq!(g.count_solutions(limit), want, "limit {limit}: {g:?}");
            }
        }
    }

    #[test]
    fn hard_corpus_is_pinned() {
        // Captured from the first-empty-cell counter the generator used
        // before the mask search: the search must not change a puzzle.
        let want = [
            "000580710600017000000003060400000800203000507050000000000100000004002070308070240",
            "050078900000000010600000300000400000070810000906003400100780000200000035040020600",
            "600050000000008410083001900090700000030800200005300007009046800000000106004000300",
            "002104003000090000004008060000400620000062015100800040030600800200000000090070000",
            "070901003000005002000003618000100000600008009005000706100004000460080000008000020",
        ];
        let got = hard_corpus(5);
        assert_eq!(got, want.map(grid));
        assert_eq!(hard_puzzle(3), got[3]);
    }

    #[test]
    fn solve_keeps_its_choice_on_multi_solution_grids() {
        // Most-constrained cell, lowest index on ties, ascending digits:
        // the grids the solver returned before the mask search.
        for (puzzle, want) in [
            (
                ".".repeat(81),
                "123456789456789123789123456231674895875912364694538217317265948542897631968341572",
            ),
            (
                "000020400000000000604800000000000000000060000000000000000000040001006000040000000"
                    .to_string(),
                "573621489892345167614879235435718926127963854968254371786192543351486792249537618",
            ),
        ] {
            let p = grid(&puzzle);
            assert_eq!(p.count_solutions(2), 2, "{puzzle} is not multi-solution");
            assert_eq!(p.solve(), Some(grid(want)), "{puzzle}");
        }
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "530070000600195000098000060800060003400803001700020006060000280000419005000080079";
        let g = SudokuGrid::parse(s).unwrap();
        assert_eq!(g.get(0, 0), 5);
        assert_eq!(g.get(0, 1), 3);
        assert_eq!(g.n_givens(), 30);
        let text = g.to_string();
        assert!(text.contains('5'));
        // Dotted form parses back.
        let dotted: String = s.chars().map(|c| if c == '0' { '.' } else { c }).collect();
        assert_eq!(SudokuGrid::parse(&dotted).unwrap(), g);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SudokuGrid::parse("123").is_none());
        assert!(SudokuGrid::parse(&"x".repeat(81)).is_none());
    }

    #[test]
    fn canonical_solution_is_valid() {
        assert!(SudokuGrid::canonical_solution().is_solved());
    }

    #[test]
    fn solver_solves_known_puzzle() {
        // The classic "world's easiest" newspaper example.
        let g = SudokuGrid::parse(
            "530070000600195000098000060800060003400803001700020006060000280000419005000080079",
        )
        .unwrap();
        let sol = g.solve().unwrap();
        assert!(sol.is_solved());
        assert!(sol.extends(&g));
        assert_eq!(sol.get(0, 2), 4);
    }

    #[test]
    fn solver_rejects_contradiction() {
        let mut g = SudokuGrid([0; 81]);
        g.set(0, 0, 5);
        g.set(0, 1, 5);
        assert!(!g.is_consistent());
        assert!(g.solve().is_none());
    }

    #[test]
    fn random_solutions_are_valid_and_distinct() {
        let a = SudokuGrid::random_solution(1);
        let b = SudokuGrid::random_solution(2);
        assert!(a.is_solved());
        assert!(b.is_solved());
        assert_ne!(a, b);
        assert_eq!(SudokuGrid::random_solution(1), a, "seeded determinism");
    }

    #[test]
    fn generated_puzzles_are_unique_and_hard() {
        let p = SudokuGrid::generate(7, 26);
        assert!(p.n_givens() <= 34, "givens = {}", p.n_givens());
        assert_eq!(p.count_solutions(2), 1, "must have a unique solution");
        let sol = p.solve().unwrap();
        assert!(sol.is_solved() && sol.extends(&p));
    }

    #[test]
    fn hard_corpus_is_deterministic() {
        let a = hard_corpus(3);
        let b = hard_corpus(3);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| p.count_solutions(2) == 1));
    }

    #[test]
    fn neuron_indexing_bijective() {
        let mut seen = vec![false; 729];
        for r in 0..9 {
            for c in 0..9 {
                for d in 1..=9u8 {
                    let i = WtaNetwork::neuron(r, c, d);
                    assert!(!seen[i]);
                    seen[i] = true;
                    assert_eq!(WtaNetwork::coords(i), (r, c, d));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn conflict_set_matches_fig4() {
        // 8 cell rivals + 8 row + 8 col + 4 remaining box peers = 28.
        let set = WtaNetwork::conflict_set(4, 4, 5);
        assert_eq!(set.len(), 28);
        // No duplicates, never itself.
        let me = WtaNetwork::neuron(4, 4, 5);
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 28);
        assert!(!set.contains(&me));
        // Spot-check membership: same cell digit 6, same row col 0 digit 5,
        // box peer (3,3) digit 5.
        assert!(set.contains(&WtaNetwork::neuron(4, 4, 6)));
        assert!(set.contains(&WtaNetwork::neuron(4, 0, 5)));
        assert!(set.contains(&WtaNetwork::neuron(3, 3, 5)));
        // Not: different digit in another cell.
        assert!(!set.contains(&WtaNetwork::neuron(0, 0, 1)));
    }

    #[test]
    fn wta_network_shape() {
        let puzzle = SudokuGrid([0; 81]);
        let wta = WtaNetwork::build(&puzzle, WtaParams::default());
        assert_eq!(wta.network.len(), 729);
        // 28 inhibitory + 1 self per neuron.
        assert_eq!(wta.network.n_synapses(), 729 * 29);
    }

    #[test]
    fn wta_bias_encodes_givens() {
        let mut puzzle = SudokuGrid([0; 81]);
        puzzle.set(0, 0, 3);
        let p = WtaParams::default();
        let wta = WtaNetwork::build(&puzzle, p);
        assert_eq!(wta.bias[WtaNetwork::neuron(0, 0, 3)], p.bias_given);
        assert!(wta.bias[WtaNetwork::neuron(0, 0, 1)] < 0.0);
        assert_eq!(wta.bias[WtaNetwork::neuron(5, 5, 1)], p.bias_free);
    }

    #[test]
    fn decode_picks_majority() {
        let mut counts = vec![0u32; 729];
        counts[WtaNetwork::neuron(0, 0, 7)] = 10;
        counts[WtaNetwork::neuron(0, 0, 2)] = 3;
        counts[WtaNetwork::neuron(8, 8, 1)] = 5;
        let g = WtaNetwork::decode(&counts);
        assert_eq!(g.get(0, 0), 7);
        assert_eq!(g.get(8, 8), 1);
        assert_eq!(g.get(4, 4), 0);
    }

    #[test]
    fn wta_solves_nearly_complete_puzzle() {
        // Remove 6 cells from a valid solution: the WTA race only has to
        // settle those six cells.
        let sol = SudokuGrid::canonical_solution();
        let mut puzzle = sol;
        for i in [0, 10, 20, 40, 60, 80] {
            puzzle.0[i] = 0;
        }
        let res = solve_wta(&puzzle, WtaParams::default(), 42, 4000, 50);
        let got = res
            .solution
            .expect("WTA failed to converge on an easy puzzle");
        assert!(got.is_solved());
        assert!(got.extends(&puzzle));
    }

    #[test]
    fn wta_solves_a_hard_corpus_puzzle() {
        // 24 givens — hardest band; this instance/seed converges quickly
        // (the full corpus statistics live in EXPERIMENTS.md).
        let p = hard_corpus(10)[9];
        assert!(p.n_givens() <= 26);
        let r = solve_wta(&p, WtaParams::default(), 16, 12_000, 30);
        let sol = r.solution.expect("hard puzzle did not converge");
        assert!(sol.is_solved() && sol.extends(&p));
        assert_eq!(sol, p.solve().unwrap());
    }

    #[test]
    fn wta_solves_moderate_puzzle() {
        let puzzle = SudokuGrid::generate(3, 45); // ~45 givens: moderate
        let res = solve_wta(&puzzle, WtaParams::default(), 7, 8000, 50);
        let got = res.solution.expect("WTA failed on moderate puzzle");
        assert!(got.is_solved());
        assert!(got.extends(&puzzle));
        // And it must match the unique classical solution.
        assert_eq!(got, puzzle.solve().unwrap());
    }
}
