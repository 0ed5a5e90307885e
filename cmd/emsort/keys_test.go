package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	empart "repro"
)

// refKeys is the reference parser the streaming one replaced: ScanWords
// tokens through strconv.ParseInt into a slice.
func refKeys(in io.Reader) ([]empart.Elem, error) {
	var elems []empart.Elem
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		k, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", sc.Text(), err)
		}
		elems = append(elems, empart.Elem{Key: k, Aux: int64(len(elems))})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(elems) == 0 {
		return nil, fmt.Errorf("no input")
	}
	return elems, nil
}

// collectKeys runs the streaming parser into a slice.
func collectKeys(in io.Reader) ([]empart.Elem, error) {
	var elems []empart.Elem
	if err := stageKeys(in, func(e empart.Elem) { elems = append(elems, e) }); err != nil {
		return nil, err
	}
	return elems, nil
}

// sameParse fails t unless the streaming parser and the reference agree on
// data: the same keys with the same Aux, or errors with the same text.
func sameParse(t *testing.T, name string, data []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	want, wantErr := refKeys(bytes.NewReader(data))
	got, gotErr := collectKeys(wrap(bytes.NewReader(data)))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: parsed %d keys, reference %d (or different values)", name, len(got), len(want))
	}
}

func TestParseKeysMatchesScanWords(t *testing.T) {
	pad := strings.Repeat(" ", readBufSize-3)
	cases := []struct {
		name  string
		in    string
		small bool // cheap enough to feed in short reads
	}{
		{"empty", "", true},
		{"whitespace only", " \t\r\n\v\f     ", true},
		{"plus sign", "+5", true},
		{"negative zero", "-0", true},
		{"signs alone", "- +", true},
		{"int64 extremes", "9223372036854775807 -9223372036854775808", true},
		{"overflow", "1 9223372036854775808", true},
		{"underflow", "-9223372036854775809", true},
		{"non-integer", "12 potato", true},
		{"underscore", "1_000", true},
		{"eighteen digits", "999999999999999999 -999999999999999999", true},
		{"nineteen digits", "1000000000000000000 -1000000000000000000 +9223372036854775807 -0000000000000000001", true},
		{"nineteen-digit overflow", "9999999999999999999", true},
		{"twenty digits", "00000000000000000001 -09223372036854775808", true},
		{"leading zeros", strings.Repeat("0", 300) + "42 -" + strings.Repeat("0", 30) + "7", true},
		{"crlf", "3\r\n1\r\n2\r\n", true},
		{"no trailing newline", "3\n1\n2", true},
		{"unicode separators", "1\u00a02\u20283\u30004\u00855\u16806\u200a7\u202f8\u205f9\u2029 10", true},
		{"non-space unicode", "1\u00e92", true},
		{"zero-width space is not a separator", "1\u200b2", true},
		{"invalid utf8", "4 1\xff2", true},
		{"truncated rune at eof", "5 \xe2\x80", true},
		{"replacement rune", "5 \ufffd", true},
		{"token across the buffer boundary", pad + "123456789 42", false},
		{"rune across the buffer boundary", strings.Repeat(" ", readBufSize-2) + "\u2028" + "7 8", false},
		{"space rune ends the buffer", strings.Repeat(" ", readBufSize-2) + "\u00a0" + "9", false},
		{"token longer than the buffer", "1" + strings.Repeat("0", readBufSize), false},
		{"long token after keys", "1 2 " + strings.Repeat("7", readBufSize+10) + " 3", false},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"half", iotest.HalfReader},
		{"dataerr", iotest.DataErrReader},
		{"onebyte", iotest.OneByteReader},
	}
	for _, c := range cases {
		for _, r := range readers {
			if !c.small && r.name != "whole" {
				// Short reads make both parsers rescan a pending token from
				// its start on every refill: quadratic in a 1 MiB token.
				continue
			}
			sameParse(t, c.name+"/"+r.name, []byte(c.in), r.wrap)
		}
	}
}

// A read error ends the input: the tokens before it are parsed first, and
// their parse error, if any, wins over the read error, as under ScanWords.
func TestParseKeysReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{"1 2 3", "1 x 3", ""} {
		failing := func() io.Reader { return io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)) }
		_, want := refKeys(failing())
		_, got := collectKeys(failing())
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%q then a read error: %v, reference %v", in, got, want)
		}
	}
}

func FuzzParseKeys(f *testing.F) {
	for _, s := range []string{"", " ", "5 3 9", "+5 -0", "9223372036854775808", "12 potato",
		"3\r\n1", "1 2 3", "1\xff2", "5 \xe2\x80", "0007"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameParse(t, "whole", data, func(r io.Reader) io.Reader { return r })
		sameParse(t, "onebyte", data, iotest.OneByteReader)
	})
}
