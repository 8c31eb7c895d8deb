package policy

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sdme/internal/netaddr"
)

// Text format for policy lists, modeled on the paper's Table I. One
// policy per line, five whitespace-separated fields:
//
//	<src> <dst> <srcPort> <dstPort> <actions>
//
//	# web within the enterprise is permitted
//	128.40.0.0/16  128.40.0.0/16  *   80  permit
//	*              128.40.0.0/16  *   80  FW,IDS
//	128.40.0.0/16  *              *   80  FW,IDS,WP
//
// Prefixes are CIDR or "*"; ports are "*", a single port, or "lo-hi";
// actions are a comma-separated function list or "permit". An optional
// sixth field "proto=tcp|udp|icmp|<n>" restricts the protocol. Comments
// (#) and blank lines are ignored. Order in the file is match priority.

// ParseRules reads the text format into an existing table, appending in
// order. Errors carry 1-based line numbers.
func ParseRules(r io.Reader, tbl *Table) error {
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 5 || len(fields) > 6 {
			return fmt.Errorf("policy: line %d: want 5 or 6 fields, got %d", lineNo, len(fields))
		}
		d, err := ParseMatch(fields[0], fields[1], fields[2], fields[3])
		if err != nil {
			return fmt.Errorf("policy: line %d: %w", lineNo, err)
		}
		actions, err := ParseActions(fields[4])
		if err != nil {
			return fmt.Errorf("policy: line %d: %w", lineNo, err)
		}
		if len(fields) == 6 {
			if d.Proto, err = parseProtoField(fields[5]); err != nil {
				return fmt.Errorf("policy: line %d: %w", lineNo, err)
			}
		}
		tbl.Add(d, actions)
	}
	return scanner.Err()
}

// ParseMatch parses a policy's four match fields in the text format's
// notation; an empty field means "*".
func ParseMatch(src, dst, srcPort, dstPort string) (Descriptor, error) {
	d := NewDescriptor()
	var err error
	if d.Src, err = parsePrefixField(src); err != nil {
		return d, fmt.Errorf("src: %w", err)
	}
	if d.Dst, err = parsePrefixField(dst); err != nil {
		return d, fmt.Errorf("dst: %w", err)
	}
	if d.SrcPort, err = parsePortField(srcPort); err != nil {
		return d, fmt.Errorf("srcPort: %w", err)
	}
	if d.DstPort, err = parsePortField(dstPort); err != nil {
		return d, fmt.Errorf("dstPort: %w", err)
	}
	return d, nil
}

func parsePrefixField(s string) (netaddr.Prefix, error) {
	if s == "*" || s == "" {
		return netaddr.AnyPrefix(), nil
	}
	if !strings.ContainsRune(s, '/') {
		// A bare address means a /32 host match.
		a, err := netaddr.ParseAddr(s)
		if err != nil {
			return netaddr.Prefix{}, err
		}
		return netaddr.PrefixFrom(a, 32), nil
	}
	return netaddr.ParsePrefix(s)
}

func parsePortField(s string) (netaddr.PortRange, error) {
	if s == "*" || s == "" {
		return netaddr.AnyPort(), nil
	}
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		l, err1 := strconv.ParseUint(lo, 10, 16)
		h, err2 := strconv.ParseUint(hi, 10, 16)
		if err1 != nil || err2 != nil || l > h {
			return netaddr.PortRange{}, fmt.Errorf("bad port range %q", s)
		}
		return netaddr.PortRange{Lo: uint16(l), Hi: uint16(h)}, nil
	}
	p, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return netaddr.PortRange{}, fmt.Errorf("bad port %q", s)
	}
	return netaddr.SinglePort(uint16(p)), nil
}

func parseProtoField(s string) (uint8, error) {
	v, ok := strings.CutPrefix(s, "proto=")
	if !ok {
		return 0, fmt.Errorf("bad field %q (want proto=...)", s)
	}
	switch strings.ToLower(v) {
	case "any", "*":
		return netaddr.ProtoAny, nil
	case "tcp":
		return netaddr.ProtoTCP, nil
	case "udp":
		return netaddr.ProtoUDP, nil
	case "icmp":
		return netaddr.ProtoICMP, nil
	}
	n, err := strconv.ParseUint(v, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("bad protocol %q", v)
	}
	return uint8(n), nil
}

// FormatRules renders the table back into the text format, one policy
// per line, preserving order. ParseRules(FormatRules(t)) reproduces t.
func FormatRules(w io.Writer, tbl *Table) error {
	for _, p := range tbl.All() {
		src, dst := p.Desc.Src.String(), p.Desc.Dst.String()
		if p.Desc.Src.IsAny() {
			src = "*"
		}
		if p.Desc.Dst.IsAny() {
			dst = "*"
		}
		actions := strings.ReplaceAll(p.Actions.String(), " -> ", ",")
		line := fmt.Sprintf("%s %s %s %s %s", src, dst, p.Desc.SrcPort, p.Desc.DstPort, actions)
		if p.Desc.Proto != netaddr.ProtoAny {
			line += " proto=" + netaddr.ProtoString(p.Desc.Proto)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
