package obs

import (
	"bytes"
	"io"
	"os"
)

// DefaultChunkBytes bounds one ReadChunk window (and therefore one
// trace upload body) when the caller passes maxBytes <= 0. Large
// enough that a whole typical journal ships in one or two requests,
// small enough to stay far under any coordinator body cap.
const DefaultChunkBytes = 1 << 20

// ReadChunk reads the journal at path from byte offset, returning at
// most maxBytes of *complete* lines and the offset just past them.
// The recorder's buffered writer can flush mid-line, so the window is
// truncated at its last '\n': a chunk always ends on a record
// boundary and the returned bytes can be appended verbatim to a
// collected copy of the journal without ever tearing a record.
//
// data is empty (end == offset) when there is nothing new past
// offset, when the window holds no complete line yet, or when the
// file does not exist. Callers resume by passing end back as the next
// offset. The window is only as large as what lies past offset, so an
// idle poll allocates no buffer.
func ReadChunk(path string, offset int64, maxBytes int) (data []byte, end int64, err error) {
	if maxBytes <= 0 {
		maxBytes = DefaultChunkBytes
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, offset, nil
		}
		return nil, offset, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, offset, err
	}
	if st.Size() <= offset {
		return nil, offset, nil
	}
	buf := make([]byte, min(int64(maxBytes), st.Size()-offset))
	n, err := f.ReadAt(buf, offset)
	if err != nil && err != io.EOF {
		return nil, offset, err
	}
	buf = buf[:n]
	i := bytes.LastIndexByte(buf, '\n')
	if i < 0 {
		return nil, offset, nil
	}
	buf = buf[:i+1]
	return buf, offset + int64(len(buf)), nil
}
