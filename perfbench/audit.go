package main

import (
	"errors"
	"fmt"
	"strings"

	"flexftl/internal/ftl"
	"flexftl/internal/nand"
	"flexftl/internal/sim"
)

// maxAuditReports bounds how many mismatches an audit error lists.
const maxAuditReports = 5

// audit reads every logical page back through ftl.Host.Read at virtual time
// now. A page live[lpn] marks must read without error; every other page
// (trimmed or never written) must return ftl.ErrUnmapped. On an MLC kernel
// it also reads the device page each live LPN maps to and checks that the
// page's token carries that LPN.
func audit(h ftl.Host, live []bool, now sim.Time) error {
	if int64(len(live)) != h.LogicalPages() {
		return fmt.Errorf("audit covers %d pages, the host has %d", len(live), h.LogicalPages())
	}
	k := kernelOf(h)
	var buf nand.PageBuf
	var bad []string
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		if len(bad) < maxAuditReports {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	for i, want := range live {
		lpn := ftl.LPN(i)
		_, err := h.Read(lpn, now)
		switch {
		case !want && !errors.Is(err, ftl.ErrUnmapped):
			fail("LPN %d should be unmapped, read returned %v", lpn, err)
		case want && err != nil:
			fail("LPN %d should hold data: %v", lpn, err)
		case want && k != nil:
			if err := checkToken(k, lpn, &buf, now); err != nil {
				fail("LPN %d: %v", lpn, err)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d pages wrong: %s", failures, len(live), strings.Join(bad, "; "))
	}
	return nil
}

// checkToken reads the device page lpn maps to and decodes its token.
func checkToken(k *ftl.Kernel, lpn ftl.LPN, buf *nand.PageBuf, now sim.Time) error {
	ppn, ok := k.Map.Lookup(lpn)
	if !ok {
		return errors.New("no mapping entry")
	}
	dev := k.Device()
	a := dev.Geometry().AddrOfPPN(ppn)
	if _, err := dev.ReadInto(a, buf, now); err != nil {
		return fmt.Errorf("device page %v: %w", a, err)
	}
	if got, ok := ftl.TokenLPN(buf.Data); !ok || got != lpn {
		return fmt.Errorf("device page %v carries the token of LPN %d", a, got)
	}
	return nil
}

// kernelOf returns the MLC kernel behind h, or nil for other schemes.
func kernelOf(h ftl.Host) *ftl.Kernel {
	switch f := h.(type) {
	case *ftl.Kernel:
		return f
	case *tracedKernel:
		return f.Kernel
	}
	return nil
}
