package oraclepair

import (
	"context"
	"testing"
)

// TestMentionedOn references MentionedOn without calling
// enginetest.Run — this file is not a suite file, so the reference
// must not satisfy the suite-registration check.
func TestMentionedOn(t *testing.T) {
	if _, err := MentionedOn(context.Background(), nil, 0); err == nil {
		t.Fatal("MentionedOn accepted a nil engine")
	}
}
