package ftl

import (
	"testing"

	"flexftl/internal/nand"
)

// TestPayloadsFitDeviceSlots pins the kernel's payloads to the MLC page
// store's inline slots. A token or spare wider than its slot still works,
// but silently routes every program through the store's allocating side
// table.
func TestPayloadsFitDeviceSlots(t *testing.T) {
	var b Base
	for _, c := range []struct {
		name       string
		size, slot int
	}{
		{"TokenSize", TokenSize, nand.DataSlotBytes},
		{"Base.Token", len(b.Token(1)), nand.DataSlotBytes},
		{"SpareForLPN", len(SpareForLPN(1)), nand.SpareSlotBytes},
		{"Base.Spare", len(b.Spare(1)), nand.SpareSlotBytes},
		{"spareForBlock", len(spareForBlock(1)), nand.SpareSlotBytes},
	} {
		if c.size > c.slot {
			t.Errorf("%s is %d bytes, over the %d-byte slot", c.name, c.size, c.slot)
		}
	}
}
