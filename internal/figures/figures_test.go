package figures

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

func TestSortedKeysSortedAndComplete(t *testing.T) {
	keys := SortedKeys()
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("SortedKeys() = %v, want sorted", keys)
	}
	if len(keys) != len(Keys()) {
		t.Fatalf("SortedKeys has %d keys, Keys has %d", len(keys), len(Keys()))
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range Keys() {
		seen[k] = true
	}
	for _, k := range keys {
		if !seen[k] {
			t.Errorf("SortedKeys key %q missing from Keys", k)
		}
	}
}

func TestGetRoundTrip(t *testing.T) {
	for _, k := range Keys() {
		f, ok := Get(k)
		if !ok {
			t.Errorf("Get(%q) not found", k)
			continue
		}
		if f.Key != k {
			t.Errorf("Get(%q).Key = %q", k, f.Key)
		}
		if f.Title == "" || f.Render == nil {
			t.Errorf("figure %q incomplete: %+v", k, f)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unknown key succeeded")
	}
	if len(All()) != len(Keys()) {
		t.Errorf("All() has %d figures, Keys() %d", len(All()), len(Keys()))
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		wantE string
	}{
		{"defaults ok", func(*Config) {}, ""},
		{"grid too small", func(c *Config) { c.GridN = 1 }, "-grid"},
		{"sweep too small", func(c *Config) { c.SweepN = 1 }, "-sweep"},
		{"samples zero", func(c *Config) { c.Samples = 0 }, "-samples"},
	}
	for _, tc := range cases {
		cfg := Defaults()
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.wantE == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantE) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantE)
		}
	}
}

// sweepless lists the figures that dispatch no work at all: closed-form
// worked examples and tables.
var sweepless = map[string]bool{"5a": true, "5b": true}

// TestRenderEngineHonored: every registry figure with a sweep
// dispatches on the Config's engine — none falls back to another one,
// which would bypass a service's slot cap — and its output matches the
// engine.Serial render byte for byte.
func TestRenderEngineHonored(t *testing.T) {
	ctx := context.Background()
	for _, f := range All() {
		cfg := Defaults()
		cfg.Engine = engine.Serial
		var want bytes.Buffer
		if err := f.Render(ctx, &want, cfg); err != nil {
			t.Fatalf("%s on serial: %v", f.Key, err)
		}
		rec := &enginetest.Recorder{Inner: engine.WordParallel}
		cfg.Engine = rec
		var got bytes.Buffer
		if err := f.Render(ctx, &got, cfg); err != nil {
			t.Fatalf("%s on the recorder: %v", f.Key, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: output on the recording engine differs from the serial render", f.Key)
		}
		if want.Len() == 0 {
			t.Errorf("%s rendered empty output", f.Key)
		}
		switch n := len(rec.Dispatches()); {
		case sweepless[f.Key] && n != 0:
			t.Errorf("%s dispatched %d times but is listed as sweepless", f.Key, n)
		case !sweepless[f.Key] && n == 0:
			t.Errorf("%s never dispatched on Config.Engine", f.Key)
		}
	}
}
