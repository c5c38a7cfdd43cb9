package algorithms

import (
	"errors"
	"fmt"
	"strings"
)

// ErrUnknownKernel is the sentinel wrapped by every unknown-kernel error in
// the system (runner, stream, serve, bench and the public API all route
// through New), so callers can errors.Is against one value regardless of
// which layer surfaced the failure.
var ErrUnknownKernel = errors.New("unknown kernel")

// UnknownKernelError reports a kernel name that is not in the registry,
// carrying the supported set so front ends (serve's 400 JSON shape) can
// tell the client what would have worked.
type UnknownKernelError struct {
	Name      string
	Supported []string
}

func (e *UnknownKernelError) Error() string {
	return fmt.Sprintf("algorithms: unknown kernel %q (supported: %s)",
		e.Name, strings.Join(e.Supported, ", "))
}

func (e *UnknownKernelError) Unwrap() error { return ErrUnknownKernel }

// The process-wide kernel registry. Registration happens only from package
// init functions (this package's own kernels) or before any concurrent use
// (embedders calling piccolo.RegisterKernel from their own init/main), so
// reads need no locking.
var registry = struct {
	byName map[string]Kernel
	order  []string
}{byName: map[string]Kernel{}}

// Register adds k to the registry under its descriptor's Name. It panics
// on an empty name, a non-positive version, or a duplicate registration —
// all programming errors in the kernel being added, caught at init. The
// five paper kernels register from this package; new kernels register
// themselves from their own file and the whole stack (engine push/pull,
// stream repair or its declared fallback, runner caching, serve, the
// differential and conformance suites) picks them up from the descriptor.
func Register(k Kernel) {
	d := k.Descriptor()
	if d.Name == "" {
		panic("algorithms: Register: kernel descriptor has no name")
	}
	if d.Version <= 0 {
		panic(fmt.Sprintf("algorithms: Register %q: descriptor version must be positive", d.Name))
	}
	if d.Rank.Score == nil && !d.Rank.ByLabel {
		panic(fmt.Sprintf("algorithms: Register %q: descriptor declares no top-k ranking", d.Name))
	}
	if _, dup := registry.byName[d.Name]; dup {
		panic(fmt.Sprintf("algorithms: kernel %q registered twice", d.Name))
	}
	registry.byName[d.Name] = k
	registry.order = append(registry.order, d.Name)
}

// New returns the registered kernel for name, or an *UnknownKernelError
// (wrapping ErrUnknownKernel) listing the supported set.
func New(name string) (Kernel, error) {
	if k, ok := registry.byName[name]; ok {
		return k, nil
	}
	return nil, &UnknownKernelError{Name: name, Supported: Names()}
}

// MustDescriptor returns the descriptor for a name known to be registered;
// it panics otherwise. For call sites that already validated the name via
// New and would otherwise thread the descriptor through every signature.
func MustDescriptor(name string) Descriptor {
	k, ok := registry.byName[name]
	if !ok {
		panic(fmt.Sprintf("algorithms: MustDescriptor: unknown kernel %q", name))
	}
	return k.Descriptor()
}

// Names returns the registered kernel names in registration order (the
// five paper kernels first, then extras in their file-init order).
func Names() []string {
	return append([]string(nil), registry.order...)
}

// Capabilities returns the JSON projection of every registered descriptor,
// in registration order — the discovery payload for /healthz and /stats.
func Capabilities() []Capability {
	cs := make([]Capability, len(registry.order))
	for i, name := range registry.order {
		cs[i] = registry.byName[name].Descriptor().Capability()
	}
	return cs
}
