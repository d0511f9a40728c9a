package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/attack"
)

// BenchmarkSubmit times one submission over HTTP to an Engine mounted
// on an httptest server: the round trip, admission, the build, the run
// and the JSON answer. Both modes run an attack-corpus victim under
// pythia on its benign input.
//
//	hit:  resubmits the one warmed source, serve-hot's path: a memo
//	      hit, the module decode and the run.
//	miss: sends a source no earlier iteration sent, the victim plus a
//	      distinct comment, so the compile, the analysis and the harden
//	      run on every request.
func BenchmarkSubmit(b *testing.B) {
	c := attack.Corpus()[0]
	e, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	mux := http.NewServeMux()
	e.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	submit := func(b *testing.B, src string) {
		body, err := json.Marshal(SubmitRequest{Source: src, Scheme: "pythia", Stdin: c.Benign, Tenant: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/api/v1/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		var sr SubmitResponse
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(out, &sr) != nil || sr.Verdict == "" {
			b.Fatalf("submit answered %d: %s (err %v)", resp.StatusCode, out, err)
		}
	}
	submit(b, c.Source)
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			submit(b, c.Source)
		}
	})
	sent := 0
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sent++
			submit(b, c.Source+"\n/* "+strconv.Itoa(sent)+" */\n")
		}
	})
}
