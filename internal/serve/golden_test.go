package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden instead of comparing")

// goldenRequests is one fixed-seed request per /v1 compute endpoint;
// each response body is pinned under testdata/golden/serve.
var goldenRequests = []struct{ name, path, body string }{
	{"figures_6a", "/v1/figures/6a", `{"grid":4}`},
	{"figures_7a", "/v1/figures/7a", `{"sweep":5}`},
	{"figures_yield", "/v1/figures/yield", `{"samples":20}`},
	{"ber", "/v1/ber", `{"target_ber":[1e-2,1e-3],"bits":20000,"seed":5}`},
	{"yield", "/v1/yield", `{"sigmas_nm":[0.05,0.1],"samples":20,"seed":7}`},
	{"image_gamma", "/v1/image/gamma", `{"source":{"synth":"gradient","width":16,"height":8},"stream_len":256,"seed":3}`},
	{"image_edge", "/v1/image/edge", `{"source":{"synth":"radial","width":16,"height":8},"stream_len":256,"seed":3}`},
}

// TestGoldenResponses pins every /v1 compute endpoint's response body
// byte for byte on the default and the serial engine. Refresh with
// `go test ./internal/serve -run Golden -update`.
func TestGoldenResponses(t *testing.T) {
	for _, eng := range []engine.Engine{nil, engine.Serial} {
		s := New(Config{Engine: eng})
		for _, g := range goldenRequests {
			path := filepath.Join("..", "..", "testdata", "golden", "serve", g.name+".json")
			rec := post(s, g.path, g.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", g.path, rec.Code, rec.Body.String())
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create it): %v", err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("engine %v: POST %s %s differs from %s; if the change is intended, rerun with -update and review the diff",
					s.Engine().Name(), g.path, g.body, path)
			}
		}
	}
}
