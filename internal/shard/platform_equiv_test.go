package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"casc/internal/server"
)

// TestPlatformMatchesOneShardCluster drives one seeded op stream —
// register, post, batch, rate — through the unsharded platform's handler
// and a K=1 cluster's handler, and requires the same replies: identical
// IDs and pairs, and bitwise-equal score, upper and expired counts on
// every round. It is the first step of merging the two round kernels.
func TestPlatformMatchesOneShardCluster(t *testing.T) {
	const b, rounds = 3, 12
	for _, solver := range []string{"TPG", "GT", "GT+LUB", "GT+ALL"} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", solver, seed), func(t *testing.T) {
				p, err := server.NewPlatform(server.Config{B: b})
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewCluster(Config{K: 1, B: b})
				if err != nil {
					t.Fatal(err)
				}
				tiers := [2]http.Handler{p.Handler(), c.Handler()}
				// do sends one request to both tiers and returns the
				// platform's reply after checking the cluster's status
				// code matches.
				do := func(path, body string) (int, []byte, []byte) {
					t.Helper()
					var codes [2]int
					var bodies [2][]byte
					for i, h := range tiers {
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
						codes[i], bodies[i] = rec.Code, rec.Body.Bytes()
					}
					if codes[0] != codes[1] {
						t.Fatalf("POST %s %s: platform %d %s, cluster %d %s",
							path, body, codes[0], bodies[0], codes[1], bodies[1])
					}
					return codes[0], bodies[0], bodies[1]
				}
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < rounds; round++ {
					for i := 0; i < 6+rng.Intn(6); i++ {
						_, pb, cb := do("/workers", fmt.Sprintf(`{"x":%v,"y":%v,"speed":%v,"radius":%v}`,
							rng.Float64(), rng.Float64(), 0.05+0.1*rng.Float64(), 0.1+0.2*rng.Float64()))
						if string(pb) != string(cb) {
							t.Fatalf("round %d: worker IDs diverge: %s vs %s", round, pb, cb)
						}
					}
					for i := 0; i < 2+rng.Intn(4); i++ {
						_, pb, cb := do("/tasks", fmt.Sprintf(`{"x":%v,"y":%v,"capacity":%d,"deadline":%d}`,
							rng.Float64(), rng.Float64(), b+rng.Intn(3), round+1+rng.Intn(3)))
						if string(pb) != string(cb) {
							t.Fatalf("round %d: task IDs diverge: %s vs %s", round, pb, cb)
						}
					}
					code, pb, cb := do("/batch", fmt.Sprintf(`{"solver":%q}`, solver))
					if code != http.StatusOK {
						t.Fatalf("round %d: POST /batch: %d %s", round, code, pb)
					}
					var pr, cr server.BatchResponse
					if err := json.Unmarshal(pb, &pr); err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(cb, &cr); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(pr.Pairs, cr.Pairs) {
						t.Fatalf("round %d: pairs diverge:\nplatform %v\ncluster  %v", round, pr.Pairs, cr.Pairs)
					}
					if math.Float64bits(pr.Score) != math.Float64bits(cr.Score) ||
						math.Float64bits(pr.Upper) != math.Float64bits(cr.Upper) ||
						pr.DispatchedTasks != cr.DispatchedTasks || pr.ExpiredTasks != cr.ExpiredTasks {
						t.Fatalf("round %d: platform score %v upper %v dispatched %d expired %d, "+
							"cluster score %v upper %v dispatched %d expired %d", round,
							pr.Score, pr.Upper, pr.DispatchedTasks, pr.ExpiredTasks,
							cr.Score, cr.Upper, cr.DispatchedTasks, cr.ExpiredTasks)
					}
					// Rate about two thirds of the dispatched tasks so
					// histories grow and workers return to the pool.
					rated := map[int]bool{}
					for _, pair := range pr.Pairs {
						if rated[pair.Task] {
							continue
						}
						rated[pair.Task] = true
						if rng.Intn(3) == 0 {
							continue
						}
						if code, pb, _ := do("/ratings", fmt.Sprintf(`{"task_id":%d,"score":%v}`,
							pair.Task, rng.Float64())); code != http.StatusOK {
							t.Fatalf("round %d: POST /ratings: %d %s", round, code, pb)
						}
					}
				}
			})
		}
	}
}
