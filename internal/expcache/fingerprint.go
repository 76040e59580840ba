package expcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"sync"
)

// Key is a content-addressed cache key: the SHA-256 of the canonical
// encoding of every input that can influence the cached value.
type Key [sha256.Size]byte

// ErrUncacheable marks a value the canonical encoder refuses to
// fingerprint: a non-nil func (e.g. a RequestGate probe) or channel has
// no content identity, so sessions configured with one bypass the cache
// and run directly.
var ErrUncacheable = errors.New("expcache: value is not fingerprintable")

// Fingerprint hashes the values into one content-addressed key. The
// encoding is canonical — independent of map iteration order and pointer
// addresses — and total over plain data: bools, integers, floats
// (hashed by bit pattern, so -0 ≠ +0 and every NaN payload is itself),
// strings, slices, arrays, maps, structs (exported and unexported
// fields, in declaration order, with the type identity mixed in),
// pointers and interfaces (by concrete type identity plus pointee).
// Shared/cyclic pointers hash by first-visit order, so self-referential
// structures terminate. Non-nil funcs and channels return ErrUncacheable.
func Fingerprint(vs ...any) (Key, error) {
	h := hashers.Get().(*hasher)
	defer h.release()
	for _, v := range vs {
		if err := h.walk(reflect.ValueOf(v)); err != nil {
			return Key{}, err
		}
	}
	return h.sum(), nil
}

// hasher streams tagged values into a hash. Every emission is prefixed
// with a kind tag byte so values of different shapes cannot collide by
// concatenation (e.g. ["ab","c"] vs ["a","bc"]).
//
// Emissions are 1–9 bytes plus short names, so they are gathered in buf
// and handed to the hash a block at a time; the byte stream the hash
// sees — hence every key — does not depend on where the flushes fall.
//
// A key is taken per session and per fleet cell, so taking one must not
// allocate: hashers — the hash state, the buffer and the visit table —
// are pooled and reset between keys.
type hasher struct {
	h       hash.Hash
	n       int // bytes of buf not yet written to h
	buf     [512]byte
	visited map[uintptr]int
}

var hashers = sync.Pool{New: func() any { return &hasher{h: sha256.New()} }}

// release resets h (also after a walk that failed midway) and returns
// it to the pool.
func (h *hasher) release() {
	h.h.Reset()
	h.n = 0
	clear(h.visited)
	hashers.Put(h)
}

func (h *hasher) flush() {
	h.h.Write(h.buf[:h.n])
	h.n = 0
}

// room makes space for k ≤ len(buf) more buffered bytes.
func (h *hasher) room(k int) {
	if h.n+k > len(h.buf) {
		h.flush()
	}
}

func (h *hasher) sum() Key {
	h.flush()
	// Into the now-empty buffer: a local array handed to the hash.Hash
	// interface would be moved to the heap.
	return Key(h.h.Sum(h.buf[:0]))
}

func (h *hasher) tag(b byte) {
	h.room(1)
	h.buf[h.n] = b
	h.n++
}

func (h *hasher) u64(tag byte, u uint64) {
	h.room(9)
	h.buf[h.n] = tag
	binary.LittleEndian.PutUint64(h.buf[h.n+1:], u)
	h.n += 9
}

func (h *hasher) str(tag byte, s string) {
	h.u64(tag, uint64(len(s)))
	for {
		k := copy(h.buf[h.n:], s)
		h.n += k
		if s = s[k:]; s == "" {
			return
		}
		h.flush()
	}
}

// typeInfo is what walk emits for a struct type, computed once per type:
// building the identity string and reading field names through
// reflect.Type.Field both allocate.
type typeInfo struct {
	identity string
	fields   []string
}

var typeInfos sync.Map // reflect.Type -> *typeInfo

func structInfo(t reflect.Type) *typeInfo {
	if ti, ok := typeInfos.Load(t); ok {
		return ti.(*typeInfo)
	}
	ti := &typeInfo{identity: typeIdentity(t), fields: make([]string, t.NumField())}
	for i := range ti.fields {
		ti.fields[i] = t.Field(i).Name
	}
	typeInfos.Store(t, ti)
	return ti
}

// typeIdentity names a type unambiguously across packages.
func typeIdentity(t reflect.Type) string {
	if t.Name() != "" && t.PkgPath() != "" {
		return t.PkgPath() + "." + t.Name()
	}
	return t.String()
}

func (h *hasher) walk(v reflect.Value) error {
	if !v.IsValid() {
		h.tag('z') // untyped nil
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		b := uint64(0)
		if v.Bool() {
			b = 1
		}
		h.u64('b', b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.u64('i', uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.u64('u', v.Uint())
	case reflect.Float32, reflect.Float64:
		h.u64('f', math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		h.u64('r', math.Float64bits(real(c)))
		h.u64('j', math.Float64bits(imag(c)))
	case reflect.String:
		h.str('s', v.String())
	case reflect.Slice:
		if v.IsNil() {
			h.tag('n')
			return nil
		}
		return h.walkSeq(v)
	case reflect.Array:
		return h.walkSeq(v)
	case reflect.Map:
		return h.walkMap(v)
	case reflect.Pointer:
		if v.IsNil() {
			h.tag('n')
			return nil
		}
		addr := v.Pointer()
		if ord, ok := h.visited[addr]; ok {
			// Already hashed this pointee: refer back by visit order so
			// aliasing/cycles are captured without address dependence.
			h.u64('c', uint64(ord))
			return nil
		}
		if h.visited == nil {
			h.visited = make(map[uintptr]int)
		}
		h.visited[addr] = len(h.visited)
		h.tag('p')
		return h.walk(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			h.tag('n')
			return nil
		}
		h.str('t', typeIdentity(v.Elem().Type()))
		return h.walk(v.Elem())
	case reflect.Struct:
		ti := structInfo(v.Type())
		h.str('T', ti.identity)
		h.u64('L', uint64(len(ti.fields)))
		for i, name := range ti.fields {
			h.str('F', name)
			if err := h.walk(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Func, reflect.Chan:
		if v.IsNil() {
			h.tag('n')
			return nil
		}
		return fmt.Errorf("%w: %s", ErrUncacheable, v.Type())
	default:
		return fmt.Errorf("%w: unsupported kind %s", ErrUncacheable, v.Kind())
	}
	return nil
}

func (h *hasher) walkSeq(v reflect.Value) error {
	h.u64('l', uint64(v.Len()))
	for i := 0; i < v.Len(); i++ {
		if err := h.walk(v.Index(i)); err != nil {
			return err
		}
	}
	return nil
}

// walkMap hashes a map independent of iteration order: each entry is
// hashed into its own digest (with a fresh visit table, so the digests
// do not depend on which entry was enumerated first) and the sorted
// digests are folded into the parent hash.
func (h *hasher) walkMap(v reflect.Value) error {
	if v.IsNil() {
		h.tag('n')
		return nil
	}
	h.u64('m', uint64(v.Len()))
	digests := make([]Key, 0, v.Len())
	iter := v.MapRange()
	for iter.Next() {
		sub := hashers.Get().(*hasher)
		err := sub.walk(iter.Key())
		if err == nil {
			err = sub.walk(iter.Value())
		}
		if err == nil {
			digests = append(digests, sub.sum())
		}
		sub.release()
		if err != nil {
			return err
		}
	}
	sort.Slice(digests, func(i, j int) bool { return bytes.Compare(digests[i][:], digests[j][:]) < 0 })
	for _, d := range digests {
		h.room(len(d))
		h.n += copy(h.buf[h.n:], d[:])
	}
	return nil
}
