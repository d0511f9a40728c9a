package artifact

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchPayload is 55 KB of fixed pseudo-random bytes, about one
// serve-cold module encoding.
func benchPayload() []byte {
	p := make([]byte, 55<<10)
	rand.New(rand.NewSource(1)).Read(p)
	return p
}

// BenchmarkStorePut measures one atomic write of a module-sized entry,
// cycling over 64 keys so the directory stays small.
func BenchmarkStorePut(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = Key("bench", fmt.Sprint(i))
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(keys[i%len(keys)], payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures one read and check of a module-sized
// entry.
func BenchmarkStoreGet(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload()
	key := Key("bench")
	if err := st.Put(key, payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}
