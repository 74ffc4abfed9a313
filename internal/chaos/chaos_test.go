package chaos

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7,drop=0.05,delay=0.1:20ms,dup=0.25,corrupt=0.5,err500=1")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, Drop: 0.05, Delay: 0.1, DelayBy: 20 * time.Millisecond, Dup: 0.25, Corrupt: 0.5, Err500: 1}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if _, err := ParseSpec("dorp=0.1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, bad := range []string{"drop=1.5", "drop=NaN", "corrupt=nan", "dup=-0.1", "err500=+Inf", "delay=0.5:-5ms"} {
		if cfg, err := ParseSpec(bad); err == nil {
			t.Fatalf("%q accepted as %+v", bad, cfg)
		}
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Drop != 0 {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
}

// FuzzParseSpec: whatever the spec, an accepted Config holds every
// probability in [0,1] and a non-negative delay — a schedule that can
// inject what the spec asked for.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=7,drop=0.05,delay=0.1:20ms,dup=0.05,corrupt=0.05,err500=0.05")
	f.Add("drop=NaN")
	f.Add("delay=0.5:-5ms")
	f.Add("delay=1")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, p := range []float64{cfg.Drop, cfg.Delay, cfg.Dup, cfg.Corrupt, cfg.Err500} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q parsed to %+v: a probability outside [0,1]", spec, cfg)
			}
		}
		if cfg.DelayBy < 0 {
			t.Fatalf("%q parsed to %+v: a negative delay", spec, cfg)
		}
	})
}

// TestScheduleDeterminism pins the core contract: the i-th decision is
// a pure function of (seed, i).
func TestScheduleDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.2, Delay: 0.2, DelayBy: time.Millisecond, Dup: 0.2, Corrupt: 0.2, Err500: 0.2}
	a, b := NewSchedule(cfg), NewSchedule(cfg)
	var faults int
	for i := 0; i < 1000; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
		if da != (Decision{}) {
			faults++
		}
		if da.Drop && da.Err500 {
			t.Fatalf("decision %d is both drop and err500", i)
		}
	}
	if faults == 0 {
		t.Fatal("schedule with 20% rates injected nothing in 1000 draws")
	}
	cfg.Seed = 43
	c, d := NewSchedule(cfg), NewSchedule(Config{Seed: 42, Drop: 0.2, Delay: 0.2, DelayBy: time.Millisecond, Dup: 0.2, Corrupt: 0.2, Err500: 0.2})
	diverged := false
	for i := 0; i < 1000 && !diverged; i++ {
		diverged = c.Next() != d.Next()
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical 1000-decision streams")
	}
}

func TestTransportFaults(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, body)
		mu.Unlock()
		w.WriteHeader(200)
	}))
	defer srv.Close()

	post := func(tr *Transport) (*http.Response, error) {
		req, _ := http.NewRequest("POST", srv.URL+"/v1/up", bytes.NewReader([]byte("hello world")))
		return tr.RoundTrip(req)
	}

	t.Run("drop", func(t *testing.T) {
		var logged bytes.Buffer
		tr := NewTransport(Config{Drop: 1}, nil, slog.New(slog.NewTextHandler(&logged, nil)))
		if _, err := post(tr); !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
		if !strings.Contains(logged.String(), "path=/v1/up fault=drop") {
			t.Errorf("the drop was not narrated: %q", logged.String())
		}
	})
	t.Run("err500", func(t *testing.T) {
		tr := NewTransport(Config{Err500: 1}, nil, nil)
		resp, err := post(tr)
		if err != nil || resp.StatusCode != 500 || resp.Header.Get("X-Chaos") == "" {
			t.Fatalf("resp=%v err=%v, want synthetic 500", resp, err)
		}
		resp.Body.Close()
	})
	t.Run("corrupt", func(t *testing.T) {
		mu.Lock()
		got = nil
		mu.Unlock()
		tr := NewTransport(Config{Corrupt: 1}, nil, nil)
		resp, err := post(tr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		mu.Lock()
		defer mu.Unlock()
		if len(got) != 1 || bytes.Equal(got[0], []byte("hello world")) {
			t.Fatalf("server saw %q, want one corrupted body", got)
		}
		if len(got[0]) != len("hello world") {
			t.Fatalf("corruption changed length: %d", len(got[0]))
		}
	})
	t.Run("dup", func(t *testing.T) {
		mu.Lock()
		got = nil
		mu.Unlock()
		tr := NewTransport(Config{Dup: 1}, nil, nil)
		resp, err := post(tr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		mu.Lock()
		defer mu.Unlock()
		if len(got) != 2 || !bytes.Equal(got[0], got[1]) {
			t.Fatalf("server saw %d bodies, want 2 identical", len(got))
		}
	})
	t.Run("clean", func(t *testing.T) {
		tr := NewTransport(Config{}, nil, nil)
		resp, err := post(tr)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("resp=%v err=%v", resp, err)
		}
		resp.Body.Close()
		s := tr.Schedule()
		s.mu.Lock()
		drawn := s.n
		s.mu.Unlock()
		if drawn != 1 {
			t.Fatalf("drawn = %d, want 1", drawn)
		}
	})
}

func TestFileFaults(t *testing.T) {
	t.Run("enospc", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewFileFaults(1, 0, 1, "").Wrap("/tmp/x/wal.jsonl", &buf)
		n, err := w.Write([]byte("0123456789"))
		if n != 0 || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
			t.Fatalf("n=%d err=%v, want 0, ENOSPC via ErrInjected", n, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes written despite ENOSPC", buf.Len())
		}
	})
	t.Run("short", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewFileFaults(1, 1, 0, "").Wrap("/tmp/x/wal.jsonl", &buf)
		n, err := w.Write([]byte("0123456789"))
		if n != 5 || !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("n=%d err=%v, want 5, ErrShortWrite", n, err)
		}
		if buf.String() != "01234" {
			t.Fatalf("buf = %q", buf.String())
		}
	})
	t.Run("match-filter", func(t *testing.T) {
		var buf bytes.Buffer
		f := NewFileFaults(1, 0, 1, "manifest")
		w := f.Wrap("/tmp/x/spec.json", &buf)
		if n, err := w.Write([]byte("ok")); n != 2 || err != nil {
			t.Fatalf("filtered path faulted: n=%d err=%v", n, err)
		}
		if _, err := f.Wrap("/tmp/x/manifest-grid.jsonl", &buf).Write([]byte("no")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("matching path not faulted: %v", err)
		}
	})
}

func TestDecisionString(t *testing.T) {
	d := Decision{Drop: true, Delay: time.Millisecond}
	if s := d.String(); !strings.Contains(s, "drop") || !strings.Contains(s, "delay") {
		t.Fatalf("String() = %q", s)
	}
	if (Decision{}).String() != "clean" {
		t.Fatalf("zero decision = %q", (Decision{}).String())
	}
}
