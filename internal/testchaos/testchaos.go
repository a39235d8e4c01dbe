// Package testchaos injects the faults chaos tests need that no binary
// does: a rank process dying. It reaches elastic's unexported hook by
// linkname. Only _test files may import it.
package testchaos

import (
	_ "unsafe" // for go:linkname

	"melissa/internal/elastic"
)

//go:linkname kill melissa/internal/elastic.kill
func kill(m *elastic.Member)

// Kill makes m die the way a killed process would: its ring and control
// connections close without a goodbye, its Run returns elastic.ErrKilled,
// and the rest of the group finds out through dead links.
func Kill(m *elastic.Member) { kill(m) }
