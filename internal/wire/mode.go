package wire

import "fmt"

// Mode selects whether chunks travel in this package's columnar format.
type Mode uint8

const (
	// ModeAuto is the default: columnar chunks, each column packed or raw64
	// as its values allow.
	ModeAuto Mode = iota
	// ModeOff disables this package entirely; the cluster ships the v1
	// row-major packed format. Retained as the tests' reference plane and the
	// fallback negotiated with older peers.
	ModeOff
)

// ParseMode parses a compression knob value. The empty string means ModeAuto.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "off":
		return ModeOff, nil
	}
	return ModeAuto, fmt.Errorf("wire: unknown compression mode %q (want auto or off)", s)
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeOff:
		return "off"
	}
	return fmt.Sprintf("wire.Mode(%d)", uint8(m))
}
