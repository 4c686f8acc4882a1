package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
)

// filler streams n bytes of 'A' without holding them, and counts how
// many the server pulled.
type filler struct{ left, read int64 }

func (f *filler) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.EOF
	}
	k := min(int64(len(p)), f.left)
	for i := range p[:k] {
		p[i] = 'A'
	}
	f.left -= k
	f.read += k
	return int(k), nil
}

// TestOversizeGammaBody413WithoutBuffering streams a 256 MiB base64
// "upload" at the gamma endpoint: the answer must be a typed 413, the
// server must stop reading near the endpoint cap, and the request must
// allocate a small fraction of the body.
func TestOversizeGammaBody413WithoutBuffering(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	const bodyBytes = 256 << 20
	payload := &filler{left: bodyBytes}
	body := io.MultiReader(strings.NewReader(`{"source":{"pgm_base64":"`), payload, strings.NewReader(`"}}`))
	req := httptest.NewRequest(http.MethodPost, "/v1/image/gamma", body)
	rec := httptest.NewRecorder()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", rec.Code, rec.Body.String())
	}
	if b := decodeBody[ErrorBody](t, rec); b.Kind != "too_large" {
		t.Errorf("kind = %q, want too_large", b.Kind)
	}
	if payload.read > maxImageBody+1<<20 {
		t.Errorf("server read %d body bytes, cap %d", payload.read, maxImageBody)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bodyBytes/4 {
		t.Errorf("request allocated %d bytes for a %d-byte body", alloc, bodyBytes)
	}
}

// TestSpecBodyCaps: every spec endpoint answers a body one byte over
// its cap with 413 too_large, while the same document padded to the cap
// exactly still decodes.
func TestSpecBodyCaps(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	pad := func(doc string, size int) string { return doc + strings.Repeat(" ", size-len(doc)) }
	for _, path := range []string{"/v1/ber", "/v1/yield", "/v1/figures/5a"} {
		rec := post(s, path, pad(`{"timeout_ms":-1}`, maxSpecBody+1))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over cap: status = %d, want 413", path, rec.Code)
			continue
		}
		if b := decodeBody[ErrorBody](t, rec); b.Kind != "too_large" {
			t.Errorf("%s over cap: kind = %q, want too_large", path, b.Kind)
		}
		// At the cap the body is read whole and rejected on its
		// content (the negative timeout), not its size.
		if rec := post(s, path, pad(`{"timeout_ms":-1}`, maxSpecBody)); rec.Code != http.StatusBadRequest {
			t.Errorf("%s at cap: status = %d, want 400", path, rec.Code)
		}
	}
}
