package core

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/stochastic"
)

// This file holds the optical unit's evaluators past the bit-serial
// Step/Evaluate oracle. The noiseless optical datapath is a pure
// function of the data weight and the coefficient bit-vector —
// received power thresholded against the calibrated OOK decision level
// — so it tabulates into a (weight, z-mask) → bit table.
//
// evalPacked is the word-parallel reference (EvaluateWords, Cycles):
// 64 clock cycles collapse to SNG words, a carry-save adder tree for
// the weight, and a table lookup. It emits bitstreams identical to the
// serial path.
//
// EvaluateBatch computes only the draws its output reads. Each data
// weight's row of the table depends on few coefficient bits — one, the
// selected channel, while the eye is open — so decisionRows reduces
// every row to the coefficients it reads and its truth table over
// them, and stochastic.RowKernel draws by counter index just the data
// bits and those coefficient bits, counting the output. Its value
// equals evalPacked's on generators seeded by the same unitSeeds.

// decisionTable returns the noiseless output-bit table, a bitset
// indexed by Circuit.PowerIndex(weight, zmask), building it and the
// batch kernel over its rows on first use by thresholding the
// circuit's shared power table — both are immutable and lock-free to
// share across batch workers. Returns nil for orders beyond
// maxTableOrder.
func (u *Unit) decisionTable() []uint64 {
	if u.Circuit.P.Order > maxTableOrder {
		return nil
	}
	u.decOnce.Do(func() {
		pow := u.powerTable()
		dec := make([]uint64, (len(pow)+63)/64)
		for i, p := range pow {
			if p > u.thresholdMW {
				dec[i/64] |= 1 << uint(i%64)
			}
		}
		u.decisions = dec
		u.kernel = stochastic.NewRowKernel(unitSeeds, u.Poly.Coef, decisionRows(dec, u.Circuit.P.Order))
	})
	return u.decisions
}

// lowHalf[i] marks the bit positions of a word whose index has bit i
// clear, for i < 6.
var lowHalf = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
}

// decisionRows reduces each weight's row of an order-n decision
// bitset (2^(n+1) bits per weight, indexed by z-mask) to the
// coefficients it reads and its truth table over them. Coefficient i
// is read iff flipping z-mask bit i changes some decision; the test
// runs word-wise over the bitset. A row reading every coefficient
// keeps its slice of the bitset as its table.
func decisionRows(dec []uint64, n int) []stochastic.DecisionRow {
	n1 := n + 1
	rows := make([]stochastic.DecisionRow, n1)
	for w := range rows {
		var row []uint64
		if n1 >= 6 {
			row = dec[w<<(n1-6) : (w+1)<<(n1-6)]
		} else {
			bit := w << n1
			row = []uint64{dec[bit/64] >> uint(bit%64) & (1<<(1<<n1) - 1)}
		}
		var reads []int
		for i := 0; i < n1; i++ {
			if dependsOn(row, i) {
				reads = append(reads, i)
			}
		}
		if len(reads) == n1 {
			rows[w] = stochastic.DecisionRow{Reads: reads, Table: row}
			continue
		}
		table := make([]uint64, (1<<len(reads)+63)/64)
		for m := 0; m < 1<<len(reads); m++ {
			zmask := 0
			for j, c := range reads {
				zmask |= (m >> j & 1) << c
			}
			table[m/64] |= (row[zmask/64] >> uint(zmask%64) & 1) << uint(m%64)
		}
		rows[w] = stochastic.DecisionRow{Reads: reads, Table: table}
	}
	return rows
}

// dependsOn reports whether the row bitset, indexed by z-mask, changes
// anywhere when z-mask bit i flips.
func dependsOn(row []uint64, i int) bool {
	if i >= 6 {
		s := 1 << (i - 6)
		for j := range row {
			if j&s == 0 && row[j] != row[j|s] {
				return true
			}
		}
		return false
	}
	for _, v := range row {
		if (v^v>>(1<<i))&lowHalf[i] != 0 {
			return true
		}
	}
	return false
}

// drawWord advances the generators one packed word of nbits cycles:
// data words accumulate into the carry-save planes (returned, as the
// tree may grow), coefficient words fill coefWords. Both packed
// evaluators (noiseless and noisy) consume their sources through this
// one helper, which is what keeps them cycle-aligned with the serial
// Step path and with each other.
func (u *Unit) drawWord(data, coef []*stochastic.SNG, x float64, nbits int, planes []uint64, coefWords []uint64) []uint64 {
	planes = planes[:0]
	for i := range data {
		planes = stochastic.AddPlane(planes, data[i].NextWord(x, nbits))
	}
	for i := range coef {
		coefWords[i] = coef[i].NextWord(u.Poly.Coef[i], nbits)
	}
	return planes
}

// decodeCycles transposes the packed word state back to per-cycle
// integers: weights[t] the data-bit sum and zmasks[t] the coefficient
// bit-vector of cycle t — the shared decode between the noiseless
// table lookup and the noisy threshold compare.
func decodeCycles(planes, coefWords []uint64, nbits int, weights, zmasks *[64]int) {
	for t := 0; t < nbits; t++ {
		weight := 0
		for k, pl := range planes {
			weight |= int(pl>>uint(t)&1) << uint(k)
		}
		zmask := 0
		for i, cw := range coefWords {
			zmask |= int(cw>>uint(t)&1) << uint(i)
		}
		weights[t], zmasks[t] = weight, zmask
	}
}

// evalPacked runs `length` cycles of the word-parallel datapath with
// the given generators and decision table, 64 cycles per iteration.
func (u *Unit) evalPacked(dec []uint64, data, coef []*stochastic.SNG, x float64, length int) *stochastic.Bitstream {
	n := u.Circuit.P.Order
	out := stochastic.NewBitstream(length)
	var planes []uint64
	coefWords := make([]uint64, n+1)
	var weights, zmasks [64]int
	for w := 0; w < out.WordCount(); w++ {
		nbits := out.WordBits(w)
		planes = u.drawWord(data, coef, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, nbits, &weights, &zmasks)
		var word uint64
		for t := 0; t < nbits; t++ {
			i := u.Circuit.PowerIndex(weights[t], zmasks[t])
			word |= dec[i/64] >> uint(i%64) & 1 << uint(t)
		}
		out.SetWord(w, word)
	}
	return out
}

// EvaluateWords runs `length` noiseless cycles at input x through the
// word-parallel datapath and returns the de-randomized estimate of
// B(x) with the raw output stream. It advances the unit's generators
// exactly as Evaluate does and emits an identical bitstream; orders
// beyond maxTableOrder fall back to the bit-serial path.
func (u *Unit) EvaluateWords(x float64, length int) (float64, *stochastic.Bitstream) {
	dec := u.decisionTable()
	if dec == nil {
		return u.Evaluate(x, length)
	}
	out := u.evalPacked(dec, u.dataSNG, u.coefSNG, x, length)
	return out.Value(), out
}

// Cycles runs `length` cycles at input x through the word-parallel
// datapath and calls visit(t, weight, zmask, receivedMW) for every
// cycle t in order — the decoded per-cycle state that reductions like
// the transient eye measurement consume without paying per-bit ring
// evaluations. It advances the unit's generators exactly as
// Step/Evaluate do (64 cycles of SNG words per draw, received power
// from the shared table), so interleaving Cycles with the serial paths
// keeps every stream aligned; orders beyond maxTableOrder fall back to
// the bit-serial Step walk with identical visits.
func (u *Unit) Cycles(x float64, length int, visit func(t, weight, zmask int, receivedMW float64)) error {
	if length <= 0 {
		return fmt.Errorf("core: stream length %d, need >= 1", length)
	}
	if visit == nil {
		return fmt.Errorf("core: Cycles needs a visitor")
	}
	pow := u.powerTable()
	if pow == nil {
		for t := 0; t < length; t++ {
			r := u.Step(x, 0)
			zmask := 0
			for i, z := range r.Z {
				zmask |= z << i
			}
			visit(t, r.Weight, zmask, r.ReceivedMW)
		}
		return nil
	}
	n := u.Circuit.P.Order
	words := (length + 63) / 64
	var planes []uint64
	coefWords := make([]uint64, n+1)
	var weights, zmasks [64]int
	for w := 0; w < words; w++ {
		nbits := min(64, length-w*64)
		planes = u.drawWord(u.dataSNG, u.coefSNG, x, nbits, planes, coefWords)
		decodeCycles(planes, coefWords, nbits, &weights, &zmasks)
		for t := 0; t < nbits; t++ {
			visit(w*64+t, weights[t], zmasks[t], pow[u.Circuit.PowerIndex(weights[t], zmasks[t])])
		}
	}
	return nil
}

// EvaluateBatch computes B(x) for every input with fresh `length`-bit
// streams, fanning the inputs out over a runtime.GOMAXPROCS-sized
// worker pool. Input i reads the generators seededSNGs derives from
// stochastic.DeriveSeed(unit seed, i) — by counter index through the
// unit's row kernel, or by the cache-free serial walk for orders
// beyond maxTableOrder — so the result equals evalPacked on those
// generators and is reproducible regardless of core count or
// scheduling. The shared circuit state (decision table, kernel,
// threshold) is read-only during the fan-out; EvaluateBatch may itself
// be called concurrently.
func (u *Unit) EvaluateBatch(xs []float64, length int) []float64 {
	u.decisionTable() // build once, outside the workers
	out := make([]float64, len(xs))
	parallel.For(len(xs), func(i int) {
		seed := stochastic.DeriveSeed(u.seed, i)
		if u.kernel != nil {
			out[i] = u.kernel.Value(seed, xs[i], length)
			return
		}
		data, coef := seededSNGs(u.Circuit.P.Order, seed)
		out[i] = u.walkSeeded(data, coef, xs[i], length, nil, nil)
	})
	return out
}
