package main

// The text codec: whitespace-separated signed decimal integers in, one key
// per line out. Both directions stream, so emsort's host memory for the
// keys is one read buffer and one output buffer, not the input's length.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	empart "repro"
)

// readBufSize is the parser's fixed read buffer. A token must fit in it
// whole, so a token of readBufSize bytes or more is an error, as it was
// under bufio.Scanner with the same maximum.
const readBufSize = 1 << 20

// asciiSpace marks the ASCII bytes bufio.ScanWords splits on.
var asciiSpace = [utf8.RuneSelf]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// stageKeys parses in and passes each key to add as an Elem whose Aux is its
// input position, so the (Key, Aux) order is total. It is the one parse sink
// of both the plain and the journaled sort.
func stageKeys(in io.Reader, add func(empart.Elem)) error {
	var n int64
	err := readKeys(in, func(k int64) {
		add(empart.Elem{Key: k, Aux: n})
		n++
	})
	if err == nil && n == 0 {
		err = errors.New("no input")
	}
	return err
}

// readKeys parses the whitespace-separated signed integers of in, calling
// add with each in input order. It reads in fixed readBufSize chunks and
// splits exactly as bufio.ScanWords does: on the ASCII spaces through a
// table, and for bytes of 0x80 and up on the decoded rune's unicode.IsSpace
// (the set ScanWords uses), with invalid UTF-8 part of a token. Each token
// is parsed as strconv.ParseInt(token, 10, 64) would, with the same error.
func readKeys(in io.Reader, add func(int64)) error {
	buf := make([]byte, readBufSize)
	start, end := 0, 0 // buf[start:end] is read but not yet consumed
	// rerr ends the input once set. As with bufio.Scanner, a read error
	// ends it like io.EOF does and is reported after the tokens before it.
	var rerr error
	for {
		i := start
	scan:
		for {
			// Skip the separators before the next token.
			for i < end {
				c := buf[i]
				if c < utf8.RuneSelf {
					if !asciiSpace[c] {
						break
					}
					i++
					continue
				}
				if rerr == nil && !utf8.FullRune(buf[i:end]) {
					start = i
					break scan // the rune continues in the next read
				}
				r, w := utf8.DecodeRune(buf[i:end])
				if !unicode.IsSpace(r) {
					break
				}
				i += w
			}
			start = i
			// Find the token's end.
			j := i
			for j < end {
				c := buf[j]
				if c < utf8.RuneSelf {
					if asciiSpace[c] {
						break
					}
					j++
					continue
				}
				if rerr == nil && !utf8.FullRune(buf[j:end]) {
					break scan
				}
				r, w := utf8.DecodeRune(buf[j:end])
				if unicode.IsSpace(r) {
					break
				}
				j += w
			}
			if j == i || (j == end && rerr == nil) {
				break // no token yet, or it may continue in the next read
			}
			k, err := parseKey(buf[i:j])
			if err != nil {
				return err
			}
			add(k)
			i, start = j, j
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
		// Keep the unconsumed tail and refill behind it.
		end = copy(buf, buf[start:end])
		start = 0
		if end == len(buf) {
			return bufio.ErrTooLong
		}
		var m int
		m, rerr = in.Read(buf[end:])
		end += m
	}
}

// parseKey parses one token: a sign and up to 19 digits directly, checked
// against the int64 range, anything else through strconv.ParseInt.
func parseKey(tok []byte) (int64, error) {
	d := tok
	neg := false
	if len(d) > 0 && (d[0] == '-' || d[0] == '+') {
		neg = d[0] == '-'
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 19 { // 19 digits cannot overflow a uint64
		return parseKeySlow(tok)
	}
	var v uint64
	for _, c := range d {
		c -= '0'
		if c > 9 {
			return parseKeySlow(tok)
		}
		v = v*10 + uint64(c)
	}
	switch {
	case neg && v <= 1<<63:
		return int64(-v), nil
	case !neg && v < 1<<63:
		return int64(v), nil
	}
	return parseKeySlow(tok) // out of range: strconv's error
}

func parseKeySlow(tok []byte) (int64, error) {
	s := string(tok)
	k, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse %q: %w", s, err)
	}
	return k, nil
}

// maxKeyLine is the longest output line: "-9223372036854775808\n".
const maxKeyLine = 21

// writeKeys writes the keys of the sorted file out to dst, one per line,
// reading it a block at a time. It checks the (Key, Aux) order on the way,
// so a sort that broke it fails as an internal error.
func writeKeys(out *empart.File, dst io.Writer) error {
	w := bufio.NewWriterSize(dst, 1<<16)
	var prev empart.Elem
	var i int64
	it := out.Blocks()
	for it.Next() {
		for _, e := range it.Block() {
			if i > 0 && (e.Key < prev.Key || (e.Key == prev.Key && e.Aux < prev.Aux)) {
				return fmt.Errorf("internal error: verify: order violated at %d: %v after %v", i, e, prev)
			}
			prev = e
			i++
			if w.Available() < maxKeyLine {
				if err := w.Flush(); err != nil {
					return err
				}
			}
			line := strconv.AppendInt(w.AvailableBuffer(), e.Key, 10)
			w.Write(append(line, '\n')) // errors stick in w; Flush reports them
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return w.Flush()
}
