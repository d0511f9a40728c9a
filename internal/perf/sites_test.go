package perf

import (
	"sync"
	"testing"
)

func TestSiteProfTopOrdering(t *testing.T) {
	p := NewSiteProf()
	p.Add(SiteKey{Func: "f", Instr: "store 1, %a"}, 10, 100)
	p.Add(SiteKey{Func: "f", Instr: "store 2, %b"}, 5, 300)
	p.Add(SiteKey{Func: "g", Instr: "load %c"}, 1, 300) // ties with store 2 on cycles
	p.Add(SiteKey{Func: "f", Instr: "ret void"}, 2, 50)

	top := p.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d", len(top))
	}
	// Cycles descending; the 300-cycle tie breaks on (func, instr) asc.
	if top[0].Func != "f" || top[0].Instr != "store 2, %b" {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Func != "g" || top[1].Instr != "load %c" {
		t.Fatalf("top[1] = %+v", top[1])
	}
	if top[2].Instr != "store 1, %a" || top[2].Count != 10 {
		t.Fatalf("top[2] = %+v", top[2])
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	if all := p.Top(0); len(all) != 4 {
		t.Fatalf("Top(0) should return everything, got %d", len(all))
	}
}

func TestSiteProfAccumulatesAndIsConcurrencySafe(t *testing.T) {
	p := NewSiteProf()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.Add(SiteKey{Func: "f", Instr: "add"}, 1, 2.5)
			}
		}()
	}
	wg.Wait()
	top := p.Top(1)
	if len(top) != 1 || top[0].Count != 800 || top[0].Cycles != 2000 {
		t.Fatalf("accumulation wrong: %+v", top)
	}
}

// TestSiteProfGet: Get returns a copy under the lock, so callers can
// inspect a stat while writers keep folding into the same key.
func TestSiteProfGet(t *testing.T) {
	p := NewSiteProf()
	k := SiteKey{Module: "m", Func: "f", Instr: "add"}
	if _, ok := p.Get(k); ok {
		t.Fatal("Get on empty prof reported a stat")
	}
	p.Add(k, 2, 5)
	st, ok := p.Get(k)
	if !ok || st.Count != 2 || st.Cycles != 5 {
		t.Fatalf("Get = %+v, %v", st, ok)
	}
	st.Count = 999 // mutating the copy must not touch the profiler
	if got, _ := p.Get(k); got.Count != 2 {
		t.Fatalf("Get handed out shared state: %+v", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Add(k, 1, 1)
				p.Get(k)
			}
		}()
	}
	wg.Wait()
	if st, _ := p.Get(k); st.Count != 802 {
		t.Fatalf("concurrent Add/Get lost updates: %+v", st)
	}
}
