package server

import (
	"encoding/json"
	"errors"
	"testing"

	"gpumembw/internal/api"
	"gpumembw/internal/explore"
)

// FuzzJobSpecDecode runs arbitrary request bodies through the exact
// pipeline POST /v1/jobs uses: JSON decode into api.JobSpec, then
// resolveSpec validation. The daemon's contract is reject-don't-panic —
// any outcome but a clean 400-shaped error or a deterministic cell ID is
// a bug a client could trigger remotely.
func FuzzJobSpecDecode(f *testing.F) {
	seeds := []string{
		`{"config":"baseline","bench":"dwt2d"}`,
		`{"config":"P-inf","bench":"leukocyte"}`,
		`{"configPatch":{"base":"baseline","L1":{"MSHREntries":128}},"bench":"dwt2d"}`,
		`{"config":"baseline","inlineSpec":{"Name":"t","Iters":1,"ALUPerIter":1}}`,
		`{"inlineConfig":{"NumCores":16},"inlineSpec":{"Name":"t","Iters":1,"LoadsPerIter":1,"Pattern":"stream"}}`,
		`{"config":"baseline"}`,
		`{"bench":"dwt2d"}`,
		`{"config":"baseline","inlineConfig":{},"bench":"dwt2d"}`,
		`{"config":"nope","bench":"nope"}`,
		`{"inlineSpec":{"Pattern":"tiled"},"configPatch":{"base":""}}`,
		`{}`,
		`null`,
		`{"inlineSpec":{"SharedFrac":"NaN"}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec api.JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		cell, err := resolveSpec(spec)
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) || he.status < 400 || he.status > 499 {
				t.Errorf("resolveSpec rejection is not a 4xx httpError: %v", err)
			}
			return
		}
		id := cell.CellID()
		if id == "" {
			t.Errorf("accepted spec produced an empty cell ID: %+v", spec)
		}
		// Resolution must be deterministic: the same wire bytes always
		// land on the same content-addressed cell.
		cell2, err := resolveSpec(spec)
		if err != nil {
			t.Errorf("second resolve of an accepted spec failed: %v", err)
		} else if id2 := cell2.CellID(); id2 != id {
			t.Errorf("non-deterministic cell ID: %s vs %s for %s", id, id2, data)
		}
	})
}

// FuzzExploreRequestDecode runs arbitrary request bodies through the
// exact pipeline POST /v1/explore uses: JSON decode into
// api.ExploreRequest, then explore.Compile canonicalization. The same
// reject-don't-panic contract applies — any decodable body must either
// compile into a plan or fail with an error the handler maps to a 400;
// and compilation must be deterministic, since the plan ID is the
// exploration resource's content address.
func FuzzExploreRequestDecode(f *testing.F) {
	seeds := []string{
		`{"benchmarks":["dwt2d"],"objective":{"targetSpeedup":1.5}}`,
		`{"benchmarks":["mm","sc"],"objective":{"targetSpeedup":1.2,"minimize":"area"},"strategy":"halving"}`,
		`{"benchmarks":["mm"],"objective":{"areaBudgetMM2":20,"maximize":"speedup"},"strategy":"climb"}`,
		`{"benchmarks":["mm"],"base":"P-inf","objective":{"targetSpeedup":2}}`,
		`{"benchmarks":["mm"],"objective":{"targetSpeedup":1.5},"knobs":[{"path":"l2.num_banks","values":["12","24","48"]}]}`,
		`{"inlineSpecs":[{"Name":"t","Iters":1,"LoadsPerIter":1,"Pattern":"stream"}],"objective":{"targetSpeedup":1.1}}`,
		`{"benchmarks":["mm"],"objective":{"targetSpeedup":1.5,"areaBudgetMM2":20}}`,
		`{"benchmarks":["mm"],"objective":{}}`,
		`{"objective":{"targetSpeedup":1.5}}`,
		`{"benchmarks":["nope"],"objective":{"targetSpeedup":1.5}}`,
		`{"benchmarks":["mm"],"objective":{"targetSpeedup":0.5}}`,
		`{"benchmarks":["mm"],"objective":{"targetSpeedup":1.5,"minimize":"latency"}}`,
		`{"benchmarks":["mm"],"objective":{"targetSpeedup":1.5},"knobs":[{"path":"nope","values":["1"]}]}`,
		`{"benchmarks":["mm"],"objective":{"targetSpeedup":1.5},"maxRounds":-3}`,
		`{"benchmarks":["mm"],"objective":{"targetSpeedup":1.5},"strategy":"annealing"}`,
		`{}`,
		`null`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req api.ExploreRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		p, err := explore.Compile(req)
		if err != nil {
			return // handler maps any compile failure to a 400
		}
		id := p.ID()
		if id == "" {
			t.Errorf("accepted request produced an empty exploration ID: %s", data)
		}
		// Compilation must be deterministic: the same wire bytes always
		// land on the same content-addressed exploration resource.
		p2, err := explore.Compile(req)
		if err != nil {
			t.Errorf("second compile of an accepted request failed: %v", err)
		} else if id2 := p2.ID(); id2 != id {
			t.Errorf("non-deterministic exploration ID: %s vs %s for %s", id, id2, data)
		}
		if p.Space.GridSize() <= 0 {
			t.Errorf("accepted request produced a non-positive grid: %s", data)
		}
	})
}
