package main

import (
	"bytes"
	"testing"
)

// TestListEnginesBuiltinsOnly pins -list-engines to the production
// engines: test fixtures (chaos, limited, sharded) must never be
// selectable on a running service.
func TestListEnginesBuiltinsOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list-engines"}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "parallel\nserial\n"; got != want {
		t.Errorf("-list-engines printed %q, want %q", got, want)
	}
}
