package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzSpec holds the spec loader's boundary: JSON bytes are parsed,
// defaulted and validated as Load does, and a spec that Validate accepts
// must generate its full schedule without error. Generate runs on
// accepted specs only, so the bounds Validate enforces keep every run
// small.
func FuzzSpec(f *testing.F) {
	for _, name := range Builtins() {
		data, err := json.Marshal(builtins[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"rounds":40,"grid_size":32,"workers":{"process":"weibull","rate":900,"shape":0.1,"hotspots":64},"tasks":{"process":"gamma","rate":1e300}}`))
	f.Add([]byte(`{"workers":{"process":"constant","rate":5,"diurnal":{"period":1,"amplitude":1,"phase":0.5}},"tasks":{"process":"poisson","rate":3,"bursts":[{"round":2,"multiplier":1e308},{"round":2,"multiplier":1e308}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		s = s.withDefaults()
		if s.Validate() != nil {
			return
		}
		p, err := Generate(s)
		if err != nil {
			t.Fatalf("Validate accepted %s, Generate refused it: %v", data, err)
		}
		if p.Rounds() != s.Rounds {
			t.Fatalf("%s: plan has %d rounds, spec %d", data, p.Rounds(), s.Rounds)
		}
	})
}
