package dense

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/region"
	"repro/internal/relation"
)

// TestResidencyBytesMatchEntriesAfterChurn: eight goroutines admit,
// charge orderings to and evict entries of a residency far smaller than
// the index. Afterwards the residency's byte count must be the sum of
// its resident entries' sizes, and within its budget.
func TestResidencyBytesMatchEntriesAfterChurn(t *testing.T) {
	const budget = 4000
	ix, err := Open(schema(t), kvstore.NewMemory(), WithResidentBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for i := 0; i < 24; i++ {
		lo := float64(i * 40)
		rect := region.MustNew([]int{0}, []relation.Interval{relation.OpenHi(lo, lo+40)})
		ts := make([]relation.Tuple, 5+i%20)
		for j := range ts {
			ts[j] = relation.Tuple{ID: int64(i*100 + j), Values: []float64{lo + float64(j), float64((j * 7) % 13)}}
		}
		e, err := ix.Insert(rect, ts)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				e := entries[r.Intn(len(entries))]
				var err error
				switch i % 3 {
				case 0:
					_, err = ix.TopIn(e.ID, e.Rect, relation.Predicate{}, nil, nil, 0)
				default:
					// Each attribute's ordering is charged to the entry on
					// first use.
					_, err = ix.TopInByAttr(e.ID, e.Rect, relation.Predicate{}, i%2, r.Intn(2) == 0, nil, 0)
				}
				if err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	rs := ix.res
	rs.mu.Lock()
	var sum int64
	for el := rs.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*resident).size
	}
	bytes, n, listed := rs.bytes, len(rs.elems), rs.lru.Len()
	rs.mu.Unlock()
	if bytes != sum || n != listed {
		t.Fatalf("residency counts %d bytes over %d entries; its %d listed entries sum to %d bytes", bytes, n, listed, sum)
	}
	st := ix.Stats()
	if st.ResidentBytes > budget {
		t.Fatalf("resident bytes %d exceed the %d budget", st.ResidentBytes, budget)
	}
	if st.ResidentEvictions == 0 || st.ResidentLoads == 0 {
		t.Fatalf("no churn: %+v", st)
	}
}
