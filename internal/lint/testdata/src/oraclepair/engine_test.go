package oraclepair

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
)

// TestEngineSuite registers RegisteredOn into the cross-engine suite —
// the pattern the oraclepair suite check requires for every
// engine-accepting entry point.
func TestEngineSuite(t *testing.T) {
	ctx := context.Background()
	enginetest.Run(t, nil, []enginetest.Case{{
		Name: "oraclepair.RegisteredOn",
		Eval: func(e engine.Engine) (any, error) { return RegisteredOn(ctx, e, 8) },
	}, {
		Name: "oraclepair.RegisteredShardedOn",
		Eval: func(e engine.Engine) (any, error) {
			return RegisteredShardedOn(ctx, engine.Shard{K: 0, N: 1, Inner: e}, 8)
		},
	}})
}
