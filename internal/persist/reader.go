package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
)

// RejectLegacy recognises a headerless v1 snapshot, the format that
// predates this container, by its magic without consuming input. Such a
// file yields an error wrapping ErrVersionSkew, so loaders rebuild it as
// version skew rather than report it corrupt; v1 payloads are never
// parsed. Any other input returns nil and is left to NewReader.
func RejectLegacy(br *bufio.Reader, legacyMagic string) error {
	head, err := br.Peek(len(legacyMagic))
	if err == nil && string(head) == legacyMagic {
		return fmt.Errorf("persist: legacy v1 snapshot %q, this build reads container v%d: %w",
			head, FormatVersion, ErrVersionSkew)
	}
	return nil
}

// Reader parses one framed snapshot container. Sections must be
// consumed in the order they were written; Close drains any unread
// remainder (still verifying checksums), checks the end frame, and
// enforces strict EOF.
type Reader struct {
	br  *bufio.Reader
	hdr Header
	cur *sectionReader
	err error
}

// NewReader verifies the magic and header and returns a Reader
// positioned at the first section. A valid container with a version
// other than FormatVersion yields ErrVersionSkew.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, corruptf("reading magic: %v", err)
	}
	if !bytes.Equal(magic, []byte(Magic)) {
		return nil, corruptf("bad magic %q", magic)
	}
	pr := &Reader{br: br}
	hlen := pr.u32()
	if pr.err != nil {
		return nil, corruptf("reading header length: %v", pr.err)
	}
	if hlen == 0 || hlen > maxHeaderLen {
		return nil, corruptf("implausible header length %d", hlen)
	}
	enc := make([]byte, hlen)
	if _, err := io.ReadFull(br, enc); err != nil {
		return nil, corruptf("reading header: %v", err)
	}
	wantCRC := pr.u32()
	if pr.err != nil {
		return nil, corruptf("reading header checksum: %v", pr.err)
	}
	if got := crc32.Checksum(enc, crc32cTable); got != wantCRC {
		return nil, corruptf("header checksum mismatch: %08x != %08x", got, wantCRC)
	}
	hdr, err := decodeHeader(enc)
	if err != nil {
		return nil, err
	}
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("persist: container version %d, this build reads %d: %w",
			hdr.Version, FormatVersion, ErrVersionSkew)
	}
	pr.hdr = hdr
	return pr, nil
}

// Header returns the verified container header.
func (r *Reader) Header() Header { return r.hdr }

func (r *Reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var b [4]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		r.err = err
		return 0
	}
	x, _, _ := takeU32(b[:])
	return x
}

func (r *Reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		r.err = err
		return 0
	}
	x, _, _ := takeU64(b[:])
	return x
}

// Section positions the reader at the next section, which must carry
// the given name, and returns an io.Reader over its verified payload.
// Every chunk's checksum is validated before its bytes are handed out,
// so consumers never parse corrupt data.
func (r *Reader) Section(name string) (io.Reader, error) {
	if err := r.finishCurrent(); err != nil {
		return nil, err
	}
	tag, err := r.br.ReadByte()
	if err != nil {
		return nil, corruptf("reading section frame: %v", err)
	}
	if tag != frameSection {
		return nil, corruptf("expected section frame, found tag %#02x", tag)
	}
	nameLen, err := r.br.ReadByte()
	if err != nil {
		return nil, corruptf("reading section name: %v", err)
	}
	if nameLen == 0 || int(nameLen) > maxNameLen {
		return nil, corruptf("section name length %d invalid", nameLen)
	}
	got := make([]byte, nameLen)
	if _, err := io.ReadFull(r.br, got); err != nil {
		return nil, corruptf("reading section name: %v", err)
	}
	if string(got) != name {
		return nil, corruptf("section %q where %q was expected", got, name)
	}
	r.cur = &sectionReader{r: r}
	return r.cur, nil
}

// finishCurrent drains and verifies the remainder of the section being
// read, if any.
func (r *Reader) finishCurrent() error {
	if r.cur == nil {
		return nil
	}
	cur := r.cur
	r.cur = nil
	for !cur.done {
		if err := cur.nextChunk(); err != nil {
			return err
		}
		cur.buf = nil
	}
	return nil
}

// Close verifies the end frame and that the stream holds no trailing
// bytes. A container is trustworthy only if Close returns nil.
func (r *Reader) Close() error {
	if err := r.finishCurrent(); err != nil {
		return err
	}
	tag, err := r.br.ReadByte()
	if err != nil {
		return corruptf("reading end frame: %v", err)
	}
	if tag != frameEnd {
		return corruptf("expected end frame, found tag %#02x", tag)
	}
	if _, err := r.br.ReadByte(); err == nil {
		return corruptf("trailing bytes after end frame")
	} else if err != io.EOF {
		return err
	}
	return nil
}

// sectionReader yields one section's payload, chunk by verified chunk.
type sectionReader struct {
	r     *Reader
	buf   []byte
	total uint64
	crc   uint32
	done  bool
}

func (s *sectionReader) Read(p []byte) (int, error) {
	for len(s.buf) == 0 {
		if s.done {
			return 0, io.EOF
		}
		if err := s.nextChunk(); err != nil {
			return 0, err
		}
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// nextChunk reads and verifies one chunk (or the terminator) into buf.
func (s *sectionReader) nextChunk() error {
	r := s.r
	clen := r.u32()
	if r.err != nil {
		return corruptf("reading chunk length: %v", r.err)
	}
	if clen == 0 {
		// Terminator: cross-check total length and whole-payload CRC.
		wantLen := r.u64()
		wantCRC := r.u32()
		if r.err != nil {
			return corruptf("reading section terminator: %v", r.err)
		}
		if wantLen != s.total {
			return corruptf("section length mismatch: read %d bytes, terminator says %d", s.total, wantLen)
		}
		if wantCRC != s.crc {
			return corruptf("section checksum mismatch: %08x != %08x", s.crc, wantCRC)
		}
		s.done = true
		return nil
	}
	if clen > maxChunkLen {
		return corruptf("chunk length %d exceeds limit %d", clen, maxChunkLen)
	}
	buf := make([]byte, clen)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return corruptf("reading %d-byte chunk: %v", clen, err)
	}
	wantCRC := r.u32()
	if r.err != nil {
		return corruptf("reading chunk checksum: %v", r.err)
	}
	if got := crc32.Checksum(buf, crc32cTable); got != wantCRC {
		return corruptf("chunk checksum mismatch: %08x != %08x", got, wantCRC)
	}
	s.total += uint64(clen)
	s.crc = crc32.Update(s.crc, crc32cTable, buf)
	s.buf = buf
	return nil
}
