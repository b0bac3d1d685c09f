// Package trace implements the workload trace frontend: a versioned,
// length-prefixed binary container (`.wtr` files) holding a recorded
// program, a recorder that captures it together with the run's length
// and stream hash, a replay workload.Source that feeds the detailed core
// bit-identically to the original builder program, and a parameterized
// synthetic workload generator (see synth.go). DESIGN.md §13 specifies
// the format.
//
// Container layout (all multi-byte integers are unsigned or zigzag
// varints, encoding/binary wire format):
//
//	magic "WTR1" | flags(1) | body
//	body  = version(uvarint) | headerLen(uvarint) | headerJSON
//	        | section* | end-section
//	section = tag(1) | payloadLen(uvarint) | payload
//
// flags bit 0 marks a gzip-compressed body; other bits must be zero.
// The header JSON is schema-stamped (schema.TraceVersion) with kind
// "wib-trace". Sections appear in tag order: code (1), data (2), then
// the mandatory end tag (0) whose payload length must be zero — a file
// cut off mid-write decodes to ErrTruncated, never to a silently shorter
// trace. Older writers also stored the dynamic record stream as tag 3;
// the emulator re-derives it from code and data, so the reader skips it.
// The trace digest — the content identity campaign cells carry — is the
// SHA-256 of the uncompressed body as stored, so recompressing a trace
// never changes its identity.
package trace

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"largewindow/internal/isa"
	"largewindow/internal/schema"
)

// Typed decode errors. The decoder must return one of these (wrapped
// with context) for any malformed input and never panic — the fuzz
// target enforces it.
var (
	// ErrBadMagic marks input that is not a wtr container at all.
	ErrBadMagic = errors.New("trace: not a wtr trace (bad magic)")
	// ErrTruncated marks a container that ends before its end section.
	ErrTruncated = errors.New("trace: truncated trace")
	// ErrCorrupt marks a structurally invalid container.
	ErrCorrupt = errors.New("trace: corrupt trace")
	// ErrVersion marks a container written by a newer schema than this
	// reader understands.
	ErrVersion = errors.New("trace: unsupported trace version")
)

const (
	magic = "WTR1"

	flagGzip    = 1 << 0
	flagsKnown  = flagGzip
	headerKind  = "wib-trace"
	tagEnd      = 0x00
	tagCode     = 0x01
	tagData     = 0x02
	tagRecords  = 0x03    // written by older writers, skipped on read
	maxHeader   = 1 << 20 // 1 MiB of header JSON is already absurd
	maxSection  = 1 << 31 // sanity bound on section payloads
	identityLen = 32      // hex digits of digest in Identity(), = campaign idHexLen
)

// Trace is a decoded workload trace: the full static program image plus
// recording metadata. Because the static image is complete, Program()
// reconstructs an isa.Program that simulates bit-identically to the one
// the recorder ran, and the emulator re-derives the dynamic stream.
type Trace struct {
	Name   string
	Suite  string
	Source string // ref of the recorded workload, e.g. "bench:gcc"

	Entry    uint64
	StackTop uint64
	DataBase uint64
	Code     []isa.Instr
	Data     *isa.Memory // initial data image, frozen

	// Recording metadata: dynamic instructions executed, the emulator's
	// committed-PC stream hash over them, and whether the program ran to
	// Halt within the recording budget.
	Instrs     uint64
	StreamHash uint64
	Halted     bool

	digest string
}

// header is the JSON header inside the container.
type header struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"`
	Name          string `json:"name"`
	Suite         string `json:"suite,omitempty"`
	Source        string `json:"source,omitempty"`
	Entry         uint64 `json:"entry"`
	StackTop      uint64 `json:"stack_top"`
	DataBase      uint64 `json:"data_base"`
	Instrs        uint64 `json:"instrs"`
	StreamHash    uint64 `json:"stream_hash"`
	Halted        bool   `json:"halted"`
	Code          int    `json:"code"`
	DataWords     int    `json:"data_words"`
}

// Program reconstructs the static program the trace was recorded from.
// The returned program is freshly allocated apart from the frozen data
// image, which every program of this trace shares.
func (t *Trace) Program() *isa.Program {
	code := make([]isa.Instr, len(t.Code))
	copy(code, t.Code)
	return &isa.Program{
		Name:     t.Name,
		Code:     code,
		Entry:    t.Entry,
		Image:    t.Data,
		StackTop: t.StackTop,
		DataBase: t.DataBase,
	}
}

// Digest returns the trace's content digest: sha256 over the canonical
// uncompressed body, hex-truncated like campaign cell IDs. It is
// computed while encoding or decoding; for a hand-assembled Trace it is
// derived by encoding to a throwaway hasher.
func (t *Trace) Digest() string {
	if t.digest == "" {
		h := sha256.New()
		if err := t.encodeBody(h); err != nil {
			// encodeBody only fails on writer errors; a hash never errors.
			panic(fmt.Sprintf("trace: digesting: %v", err))
		}
		t.digest = hex.EncodeToString(h.Sum(nil))[:identityLen]
	}
	return t.digest
}

// Identity returns the content-derived workload identity string that
// flows into campaign cell IDs: "trace:sha256:<digest>".
func (t *Trace) Identity() string { return "trace:sha256:" + t.Digest() }

// Write encodes the trace to w, gzip-compressing the body when gz is
// set. The digest is computed as a side effect.
func (t *Trace) Write(w io.Writer, gz bool) error {
	var flags byte
	if gz {
		flags = flagGzip
	}
	if _, err := w.Write(append([]byte(magic), flags)); err != nil {
		return err
	}
	h := sha256.New()
	var body io.Writer = io.MultiWriter(w, h)
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(w)
		body = io.MultiWriter(zw, h)
	}
	if err := t.encodeBody(body); err != nil {
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return err
		}
	}
	t.digest = hex.EncodeToString(h.Sum(nil))[:identityLen]
	return nil
}

// WriteFile writes the trace to path atomically is NOT attempted — the
// recorder writes to fresh paths. Paths ending in .gz get a gzip body.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	werr := t.Write(bw, strings.HasSuffix(path, ".gz"))
	if werr == nil {
		werr = bw.Flush()
	}
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// encodeBody writes the canonical (uncompressed) body.
func (t *Trace) encodeBody(w io.Writer) error {
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := w.Write(scratch[:n])
		return err
	}
	if err := put(uint64(schema.TraceVersion)); err != nil {
		return err
	}

	hdr, err := json.Marshal(header{
		SchemaVersion: schema.TraceVersion,
		Kind:          headerKind,
		Name:          t.Name,
		Suite:         t.Suite,
		Source:        t.Source,
		Entry:         t.Entry,
		StackTop:      t.StackTop,
		DataBase:      t.DataBase,
		Instrs:        t.Instrs,
		StreamHash:    t.StreamHash,
		Halted:        t.Halted,
		Code:          len(t.Code),
		DataWords:     t.Data.NonZeroWords(),
	})
	if err != nil {
		return err
	}
	if err := put(uint64(len(hdr))); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	section := func(tag byte, payload []byte) error {
		if _, err := w.Write([]byte{tag}); err != nil {
			return err
		}
		if err := put(uint64(len(payload))); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	}
	if err := section(tagCode, encodeCode(t.Code)); err != nil {
		return err
	}
	if err := section(tagData, encodeData(t.Data)); err != nil {
		return err
	}
	return section(tagEnd, nil)
}

// encodeCode packs instructions as (op uvarint, rd|rs1<<5|rs2<<10
// uvarint, imm zigzag-varint).
func encodeCode(code []isa.Instr) []byte {
	buf := make([]byte, 0, len(code)*4)
	var tmp [binary.MaxVarintLen64]byte
	for _, in := range code {
		n := binary.PutUvarint(tmp[:], uint64(in.Op))
		buf = append(buf, tmp[:n]...)
		regs := uint64(in.Rd) | uint64(in.Rs1)<<5 | uint64(in.Rs2)<<10
		n = binary.PutUvarint(tmp[:], regs)
		buf = append(buf, tmp[:n]...)
		n = binary.PutVarint(tmp[:], int64(in.Imm))
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

// encodeData packs the initial memory image in address order (canonical
// bytes for the digest): count, then per non-zero word the address delta
// from the previous address (uvarint) and the value (uvarint).
func encodeData(data *isa.Memory) []byte {
	words := data.NonZeroWords()
	buf := binary.AppendUvarint(make([]byte, 0, words*6), uint64(words))
	prev := uint64(0)
	data.EachWord(func(a, v uint64) {
		buf = binary.AppendUvarint(buf, a-prev)
		buf = binary.AppendUvarint(buf, v)
		prev = a
	})
	return buf
}

// Read decodes a trace container from r, verifying structure and
// computing the content digest. All failures return typed errors
// (ErrBadMagic, ErrTruncated, ErrCorrupt, ErrVersion) wrapped with
// context.
func Read(r io.Reader) (*Trace, error) {
	var pre [5]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadMagic, err)
	}
	if string(pre[:4]) != magic {
		return nil, ErrBadMagic
	}
	flags := pre[4]
	if flags&^byte(flagsKnown) != 0 {
		return nil, fmt.Errorf("%w: unknown flags 0x%02x", ErrCorrupt, flags)
	}
	body := r
	if flags&flagGzip != 0 {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("%w: opening gzip body: %v", ErrCorrupt, err)
		}
		defer zr.Close()
		body = zr
	}
	h := sha256.New()
	d := &decoder{r: bufio.NewReader(io.TeeReader(body, h))}
	t, err := d.decodeBody()
	if err != nil {
		return nil, err
	}
	t.digest = hex.EncodeToString(h.Sum(nil))[:identityLen]
	return t, nil
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

type decoder struct {
	r *bufio.Reader
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	}
	return v, nil
}

func (d *decoder) decodeBody() (*Trace, error) {
	ver, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver == 0 || ver > schema.TraceVersion {
		return nil, fmt.Errorf("%w: version %d (reader understands ≤ %d)", ErrVersion, ver, schema.TraceVersion)
	}
	hlen, err := d.uvarint("header length")
	if err != nil {
		return nil, err
	}
	if hlen == 0 || hlen > maxHeader {
		return nil, fmt.Errorf("%w: header length %d", ErrCorrupt, hlen)
	}
	hbuf := make([]byte, hlen)
	if _, err := io.ReadFull(d.r, hbuf); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	var hdr header
	if err := json.Unmarshal(hbuf, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header JSON: %v", ErrCorrupt, err)
	}
	if hdr.Kind != headerKind {
		return nil, fmt.Errorf("%w: header kind %q", ErrCorrupt, hdr.Kind)
	}
	if err := schema.Check(hdr.SchemaVersion, schema.TraceVersion, "trace header"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrVersion, err)
	}
	if hdr.Name == "" {
		return nil, fmt.Errorf("%w: empty workload name", ErrCorrupt)
	}

	t := &Trace{
		Name: hdr.Name, Suite: hdr.Suite, Source: hdr.Source,
		Entry: hdr.Entry, StackTop: hdr.StackTop, DataBase: hdr.DataBase,
		Instrs: hdr.Instrs, StreamHash: hdr.StreamHash, Halted: hdr.Halted,
	}
	seen := map[byte]bool{}
	for {
		tag, err := d.r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: section tag: %v", ErrTruncated, err)
		}
		plen, err := d.uvarint("section length")
		if err != nil {
			return nil, err
		}
		if plen > maxSection {
			return nil, fmt.Errorf("%w: section 0x%02x length %d", ErrCorrupt, tag, plen)
		}
		if tag == tagEnd {
			if plen != 0 {
				return nil, fmt.Errorf("%w: end section with payload", ErrCorrupt)
			}
			break
		}
		if seen[tag] {
			return nil, fmt.Errorf("%w: duplicate section 0x%02x", ErrCorrupt, tag)
		}
		seen[tag] = true
		payload := make([]byte, plen)
		if _, err := io.ReadFull(d.r, payload); err != nil {
			return nil, fmt.Errorf("%w: section 0x%02x payload: %v", ErrTruncated, tag, err)
		}
		switch tag {
		case tagCode:
			if t.Code, err = decodeCode(payload, hdr.Code); err != nil {
				return nil, err
			}
		case tagData:
			if t.Data, err = decodeData(payload, hdr.DataWords); err != nil {
				return nil, err
			}
		case tagRecords:
			// An older writer's record stream: read (and digested), not kept.
		default:
			return nil, fmt.Errorf("%w: unknown section 0x%02x", ErrCorrupt, tag)
		}
	}
	if len(t.Code) == 0 {
		return nil, fmt.Errorf("%w: missing code section", ErrCorrupt)
	}
	if t.Data == nil {
		return nil, fmt.Errorf("%w: missing data section", ErrCorrupt)
	}
	if t.Entry >= uint64(len(t.Code)) {
		return nil, fmt.Errorf("%w: entry %d outside code (%d instrs)", ErrCorrupt, t.Entry, len(t.Code))
	}
	return t, nil
}

// byteCursor walks one section payload; any overrun is corruption.
type byteCursor struct {
	buf []byte
	off int
}

func (c *byteCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) varint(what string) (int64, error) {
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) done(what string) error {
	if c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes in %s", ErrCorrupt, len(c.buf)-c.off, what)
	}
	return nil
}

func decodeCode(payload []byte, count int) ([]isa.Instr, error) {
	if count < 0 || count > len(payload) { // every instr is ≥ 3 bytes
		return nil, fmt.Errorf("%w: code count %d vs %d payload bytes", ErrCorrupt, count, len(payload))
	}
	c := &byteCursor{buf: payload}
	code := make([]isa.Instr, 0, count)
	for i := 0; i < count; i++ {
		op, err := c.uvarint("code op")
		if err != nil {
			return nil, err
		}
		regs, err := c.uvarint("code regs")
		if err != nil {
			return nil, err
		}
		imm, err := c.varint("code imm")
		if err != nil {
			return nil, err
		}
		if op >= uint64(isa.NumOps) || regs>>15 != 0 || imm < math.MinInt32 || imm > math.MaxInt32 {
			return nil, fmt.Errorf("%w: instruction %d out of range", ErrCorrupt, i)
		}
		in := isa.Instr{
			Op:  isa.Op(op),
			Rd:  isa.Reg(regs & 0x1f),
			Rs1: isa.Reg(regs >> 5 & 0x1f),
			Rs2: isa.Reg(regs >> 10 & 0x1f),
			Imm: int32(imm),
		}
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("%w: instruction %d: %v", ErrCorrupt, i, err)
		}
		code = append(code, in)
	}
	return code, c.done("code section")
}

func decodeData(payload []byte, count int) (*isa.Memory, error) {
	c := &byteCursor{buf: payload}
	n, err := c.uvarint("data count")
	if err != nil {
		return nil, err
	}
	if int(n) != count || n > uint64(len(payload)) { // ≥ 2 bytes per word
		return nil, fmt.Errorf("%w: data count %d (header says %d, payload %d bytes)", ErrCorrupt, n, count, len(payload))
	}
	data := isa.NewMemory()
	addr := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := c.uvarint("data addr")
		if err != nil {
			return nil, err
		}
		if i > 0 && delta == 0 {
			return nil, fmt.Errorf("%w: duplicate data address", ErrCorrupt)
		}
		addr += delta
		if addr%8 != 0 {
			return nil, fmt.Errorf("%w: misaligned data address %#x", ErrCorrupt, addr)
		}
		v, err := c.uvarint("data value")
		if err != nil {
			return nil, err
		}
		if v == 0 {
			return nil, fmt.Errorf("%w: explicit zero data word at %#x", ErrCorrupt, addr)
		}
		data.WriteWord(addr, v)
	}
	data.Freeze()
	return data, c.done("data section")
}
