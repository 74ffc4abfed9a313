package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestReadChunkRecordBoundaries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace-w.jsonl")
	body := []byte("line-one\nline-two\nline-three\n")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	// A max smaller than the file must end on a newline, never mid-line.
	data, end, err := ReadChunk(path, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("line-one\n"); !bytes.Equal(data, want) {
		t.Fatalf("chunk = %q, want %q", data, want)
	}
	if end != 9 {
		t.Fatalf("end = %d, want 9", end)
	}

	// Resuming at the returned end walks the rest of the file.
	var got []byte
	off := end
	for {
		data, next, err := ReadChunk(path, off, 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			break
		}
		got = append(got, data...)
		off = next
	}
	if !bytes.Equal(append([]byte("line-one\n"), got...), body) {
		t.Fatalf("resumed chunks reassemble to %q, want %q", got, body)
	}
	if off != int64(len(body)) {
		t.Fatalf("final offset = %d, want %d", off, len(body))
	}
}

func TestReadChunkTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace-w.jsonl")
	if err := os.WriteFile(path, []byte("full\n{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, end, err := ReadChunk(path, 0, DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("full\n"); !bytes.Equal(data, want) {
		t.Fatalf("chunk = %q, want %q (torn tail must be withheld)", data, want)
	}
	if end != 5 {
		t.Fatalf("end = %d, want 5", end)
	}
	// Nothing but the torn tail left: empty chunk, offset unchanged.
	data, end, err = ReadChunk(path, end, DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 || end != 5 {
		t.Fatalf("torn-only chunk = %q end %d, want empty at 5", data, end)
	}
}

// TestReadChunkWindowFitsTheFile: the read window is sized by what lies
// past the offset, not by maxBytes, and a read at the end of the file
// returns nothing.
func TestReadChunkWindowFitsTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace-w.jsonl")
	body := []byte("line-one\nline-two\n{torn")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, offset := range []int64{0, 9} {
		data, _, err := ReadChunk(path, offset, DefaultChunkBytes)
		if err != nil {
			t.Fatal(err)
		}
		if past := int64(len(body)) - offset; len(data) == 0 || int64(cap(data)) > past {
			t.Fatalf("chunk at %d: %d bytes with capacity %d, want at most the %d bytes past the offset", offset, len(data), cap(data), past)
		}
	}
	data, end, err := ReadChunk(path, int64(len(body)), DefaultChunkBytes)
	if err != nil || len(data) != 0 || end != int64(len(body)) {
		t.Fatalf("chunk at EOF = %q end %d, %v; want empty at %d", data, end, err, len(body))
	}
}

func TestReadChunkMissingFile(t *testing.T) {
	data, end, err := ReadChunk(filepath.Join(t.TempDir(), "nope.jsonl"), 7, 64)
	if err != nil {
		t.Fatalf("missing journal must read as empty, got %v", err)
	}
	if len(data) != 0 || end != 7 {
		t.Fatalf("missing file chunk = %q end %d, want empty at 7", data, end)
	}
}

func TestLoadReaderMatchesLoadFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a", "b"} {
		rec, err := OpenDir(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			rec.Interval(0, "task", time.Duration(j)*time.Millisecond, time.Millisecond).End()
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files, err := JournalFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromFiles, err := LoadFiles(files...)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if _, err := Merge(&merged, files...); err != nil {
		t.Fatal(err)
	}
	fromReader, err := LoadReader(bytes.NewReader(merged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromReader) != len(fromFiles) {
		t.Fatalf("LoadReader = %d records, LoadFiles = %d", len(fromReader), len(fromFiles))
	}
	for i := range fromFiles {
		if fromReader[i].StartUS != fromFiles[i].StartUS || fromReader[i].Writer != fromFiles[i].Writer ||
			fromReader[i].ID != fromFiles[i].ID {
			t.Fatalf("record %d differs: %+v vs %+v", i, fromReader[i], fromFiles[i])
		}
	}
}

func TestLoadFilesEmpty(t *testing.T) {
	recs, err := LoadFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("LoadFiles() = %d records, want 0", len(recs))
	}
}
