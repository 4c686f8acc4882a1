package core

import (
	"sync"
	"testing"

	"repro/internal/stochastic"
)

// TestPowerTableMatchesReceivedPower: every cached entry equals the
// direct enumeration bit-for-bit — the factor products run in the same
// order as ProbeTransmission/ReceivedPowerMW.
func TestPowerTableMatchesReceivedPower(t *testing.T) {
	c := paperCircuit(t)
	pow := c.PowerTable()
	if pow == nil {
		t.Fatal("order 2 should tabulate")
	}
	n := c.P.Order
	z := make([]int, n+1)
	for weight := 0; weight <= n; weight++ {
		for zmask := 0; zmask < 1<<(n+1); zmask++ {
			for b := range z {
				z[b] = zmask >> b & 1
			}
			if got, want := pow[c.PowerIndex(weight, zmask)], c.ReceivedPowerMW(weight, z); got != want {
				t.Fatalf("w=%d zmask=%x: table %g vs direct %g", weight, zmask, got, want)
			}
		}
	}
}

// TestPowerTableNilBeyondTableOrder: orders past the tabulation bound
// return nil instead of exploding the 2^(n+1) enumeration.
func TestPowerTableNilBeyondTableOrder(t *testing.T) {
	p := PaperParams()
	p.Order = maxTableOrder + 1
	p.WLSpacingNM = 0.05 // keep the comb inside the modulator FSR
	c, err := NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.PowerTable() != nil {
		t.Error("table built beyond maxTableOrder")
	}
}

// TestPowerBandsMatchesDirectScan pins the table-backed (and cached)
// band scan to the retained direct oracle.
func TestPowerBandsMatchesDirectScan(t *testing.T) {
	c := paperCircuit(t)
	minZ, maxZ, minO, maxO := c.PowerBands()
	dMinZ, dMaxZ, dMinO, dMaxO := c.powerBandsDirect()
	if minZ != dMinZ || maxZ != dMaxZ || minO != dMinO || maxO != dMaxO {
		t.Errorf("cached bands (%g %g %g %g) vs direct (%g %g %g %g)",
			minZ, maxZ, minO, maxO, dMinZ, dMaxZ, dMinO, dMaxO)
	}
	// Second call returns the cached values unchanged.
	minZ2, maxZ2, minO2, maxO2 := c.PowerBands()
	if minZ2 != minZ || maxZ2 != maxZ || minO2 != minO || maxO2 != maxO {
		t.Error("cached bands unstable across calls")
	}
}

// TestChannelDeltaMatchesDirect pins the factor-cached Eq. (8) bracket
// to the retained direct enumeration, per channel.
func TestChannelDeltaMatchesDirect(t *testing.T) {
	c := paperCircuit(t)
	for i := 0; i <= c.P.Order; i++ {
		if got, want := c.ChannelDelta(i), c.channelDeltaDirect(i); got != want {
			t.Errorf("channel %d: cached %g vs direct %g", i, got, want)
		}
	}
}

// TestWorstCaseDeltaOverZMatchesDirect pins the table-backed
// exhaustive margin to the retained direct enumeration.
func TestWorstCaseDeltaOverZMatchesDirect(t *testing.T) {
	c := paperCircuit(t)
	if got, want := c.WorstCaseDeltaOverZ(), c.worstCaseDeltaOverZDirect(); got != want {
		t.Errorf("cached %g vs direct %g", got, want)
	}
}

// TestUnitSharesCircuitPowerTable: units no longer build private
// copies — the circuit's table is the unit's table.
func TestUnitSharesCircuitPowerTable(t *testing.T) {
	c := paperCircuit(t)
	u1, err := NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 1)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUnit(c, stochastic.NewBernstein([]float64{0.5, 0.25, 0.75}), 2)
	if err != nil {
		t.Fatal(err)
	}
	pow := c.PowerTable()
	if &u1.powerTable()[0] != &pow[0] || &u2.powerTable()[0] != &pow[0] {
		t.Error("units hold private power tables")
	}
}

// TestCircuitCachesConcurrent hammers every lazily built cache from
// concurrent goroutines on a fresh circuit; run under -race this
// verifies the sync.Once publication story.
func TestCircuitCachesConcurrent(t *testing.T) {
	c := paperCircuit(t)
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				_, maxZ, _, _ := c.PowerBands()
				results[g] = maxZ
			case 1:
				d, _ := c.WorstCaseDelta()
				results[g] = d
			case 2:
				results[g] = c.PowerTable()[c.PowerIndex(1, 2)]
			case 3:
				results[g] = c.BER()
			}
		}(g)
	}
	wg.Wait()
	for g := 4; g < len(results); g++ {
		if results[g] != results[g-4] {
			t.Fatalf("goroutine %d saw %g, %d saw %g", g, results[g], g-4, results[g-4])
		}
	}
}
