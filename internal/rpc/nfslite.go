package rpc

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
)

// NFS-lite: a file service in the shape of NFSv2 over the RPC layer. The
// procedures below are the small-message ones the paper's aside is about
// (LOOKUP, GETATTR, and small READ/WRITE): requests of tens of bytes,
// replies of at most a few hundred.

// NFSProgram is the RPC program number (NFS's real one).
const NFSProgram = 100003

// Procedures.
const (
	ProcNull    = 0
	ProcGetAttr = 1
	ProcLookup  = 4
	ProcRead    = 6
	ProcWrite   = 8
)

// Attr is a file's attributes.
type Attr struct {
	Size  uint32
	Mtime uint32
}

// file is one stored file.
type file struct {
	data  []byte
	mtime uint32
}

// FileServer is an in-memory NFS-lite server: a flat namespace of files
// addressed by 32-bit handles.
type FileServer struct {
	files  map[string]uint32 // name -> handle
	byFH   map[uint32]*file
	names  map[uint32]string
	nextFH uint32
	clock  uint32

	// Reads/Writes/Lookups count procedure executions (NOT retransmitted
	// duplicates — the dup cache answers those without re-execution).
	Reads, Writes, Lookups int64
}

// NewFileServer creates an empty file store and registers its procedures
// on srv.
func NewFileServer(srv *Server) *FileServer {
	fs := &FileServer{
		files: make(map[string]uint32),
		byFH:  make(map[uint32]*file),
		names: make(map[uint32]string),
	}
	srv.Register(NFSProgram, ProcNull, func(reply, _ []byte) ([]byte, error) { return reply, nil })
	srv.Register(NFSProgram, ProcLookup, fs.lookup)
	srv.Register(NFSProgram, ProcGetAttr, fs.getattr)
	srv.Register(NFSProgram, ProcRead, fs.read)
	srv.Register(NFSProgram, ProcWrite, fs.write)
	return fs
}

// Create adds a file with initial contents and returns its handle.
func (fs *FileServer) Create(name string, data []byte) uint32 {
	fs.nextFH++
	fs.clock++
	fs.files[name] = fs.nextFH
	fs.byFH[fs.nextFH] = &file{data: append([]byte(nil), data...), mtime: fs.clock}
	fs.names[fs.nextFH] = name
	return fs.nextFH
}

// Names lists stored files, sorted.
func (fs *FileServer) Names() []string {
	return slices.Sorted(maps.Keys(fs.files))
}

// --- argument/result codecs (length-prefixed, big-endian) ---

func putString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// getString returns the length-prefixed string at b's front, in place.
func getString(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrGarbageArgs
	}
	n := binary.BigEndian.Uint32(b)
	if int(n) > len(b)-4 || n > 255 {
		return nil, nil, ErrGarbageArgs
	}
	return b[4 : 4+n], b[4+n:], nil
}

func (fs *FileServer) lookup(reply, args []byte) ([]byte, error) {
	fs.Lookups++
	name, _, err := getString(args)
	if err != nil {
		return nil, err
	}
	return binary.BigEndian.AppendUint32(reply, fs.files[string(name)]), nil // 0 = no such file
}

func (fs *FileServer) getattr(reply, args []byte) ([]byte, error) {
	if len(args) < 4 {
		return nil, ErrGarbageArgs
	}
	fh := binary.BigEndian.Uint32(args)
	f, ok := fs.byFH[fh]
	if !ok {
		return nil, fmt.Errorf("nfslite: stale handle %d", fh)
	}
	reply = binary.BigEndian.AppendUint32(reply, uint32(len(f.data)))
	return binary.BigEndian.AppendUint32(reply, f.mtime), nil
}

func (fs *FileServer) read(reply, args []byte) ([]byte, error) {
	fs.Reads++
	if len(args) < 12 {
		return nil, ErrGarbageArgs
	}
	fh := binary.BigEndian.Uint32(args[0:4])
	off := binary.BigEndian.Uint32(args[4:8])
	count := binary.BigEndian.Uint32(args[8:12])
	f, ok := fs.byFH[fh]
	if !ok {
		return nil, fmt.Errorf("nfslite: stale handle %d", fh)
	}
	if count > 8192 {
		count = 8192
	}
	if int(off) >= len(f.data) {
		return reply, nil
	}
	end := min(int(off)+int(count), len(f.data))
	return append(reply, f.data[off:end]...), nil
}

// write appends-or-overwrites at an offset. It is NOT idempotent when
// extending a file, which is exactly why the RPC layer's duplicate-
// request cache matters: a retransmitted WRITE must not apply twice.
func (fs *FileServer) write(reply, args []byte) ([]byte, error) {
	fs.Writes++
	if len(args) < 8 {
		return nil, ErrGarbageArgs
	}
	fh := binary.BigEndian.Uint32(args[0:4])
	off := binary.BigEndian.Uint32(args[4:8])
	data := args[8:]
	f, ok := fs.byFH[fh]
	if !ok {
		return nil, fmt.Errorf("nfslite: stale handle %d", fh)
	}
	end := int(off) + len(data)
	if end > len(f.data) {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], data)
	fs.clock++
	f.mtime = fs.clock
	return binary.BigEndian.AppendUint32(reply, uint32(len(data))), nil
}

// --- client-side convenience wrappers ---

// LookupArgs encodes a LOOKUP request.
func LookupArgs(name string) []byte { return putString(make([]byte, 0, 4+len(name)), name) }

// LookupReply decodes a LOOKUP reply (0 means not found).
func LookupReply(b []byte) (uint32, error) {
	if len(b) < 4 {
		return 0, ErrTruncated
	}
	return binary.BigEndian.Uint32(b), nil
}

// GetAttrArgs encodes a GETATTR request.
func GetAttrArgs(fh uint32) []byte { return binary.BigEndian.AppendUint32(nil, fh) }

// GetAttrReply decodes a GETATTR reply.
func GetAttrReply(b []byte) (Attr, error) {
	if len(b) < 8 {
		return Attr{}, ErrTruncated
	}
	return Attr{
		Size:  binary.BigEndian.Uint32(b[0:4]),
		Mtime: binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// ReadArgs encodes a READ request.
func ReadArgs(fh, off, count uint32) []byte {
	b := binary.BigEndian.AppendUint32(make([]byte, 0, 12), fh)
	b = binary.BigEndian.AppendUint32(b, off)
	return binary.BigEndian.AppendUint32(b, count)
}

// WriteArgs encodes a WRITE request.
func WriteArgs(fh, off uint32, data []byte) []byte {
	b := binary.BigEndian.AppendUint32(make([]byte, 0, 8+len(data)), fh)
	b = binary.BigEndian.AppendUint32(b, off)
	return append(b, data...)
}

// WriteReply decodes a WRITE reply (bytes written).
func WriteReply(b []byte) (uint32, error) {
	if len(b) < 4 {
		return 0, ErrTruncated
	}
	return binary.BigEndian.Uint32(b), nil
}
