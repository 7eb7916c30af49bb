package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"mpu/internal/backends"
	"mpu/internal/isa"
	"mpu/internal/micro"
	"mpu/internal/recipe"
	"mpu/internal/vrf"
)

// The decode table is the host's counterpart of the I2M's recipe table
// (§VI-B, Fig. 9): every machine in the process decodes through it, so each
// distinct instruction is expanded and compiled once. Entries are pure
// functions of their key and charge nothing, so sharing them moves no
// statistic, and Reset and snapshots ignore the table. A client picks the
// instructions, so each entry is charged the bytes it retains, and a charge
// that would take the table past tableBudget empties it first; a loaded
// program keeps its entries alive through its decode slice, and may hold at
// most programBudget bytes of them (decodeAt).

// decodeBudget is the default of both budgets. Measured with go1.24 on a
// 2-vCPU x86-64 guest: all 21 kernels on all four back ends, both modes, in
// one process charge 233 MiB (468 entries); `mastodon -scale 32 all`
// charges 880 MiB (1,219 entries), and its largest program holds 236 MiB.
const decodeBudget = 1 << 30

// tableBudget and programBudget are decodeBudget outside tests.
var tableBudget, programBudget atomic.Int64

// SetDecodeBudgets sets the table's and one program's budget, emptying the
// table if it holds more than its new one, and returns a function that
// restores both: a test hook, which no option reaches.
func SetDecodeBudgets(table, program int64) (restore func()) {
	pt, pp := tableBudget.Swap(table), programBudget.Swap(program)
	decoded.mu.Lock()
	charge(0)
	decoded.mu.Unlock()
	return func() { tableBudget.Store(pt); programBudget.Store(pp) }
}

// decoded is the table. Lookups read the current map without a lock;
// inserts, charges and flushes hold mu, and a flush swaps in a new map.
var decoded struct {
	mu                    sync.Mutex
	m                     atomic.Pointer[sync.Map] // decodeKey -> *expandEntry
	count, bytes, flushes int64                    // guarded by mu
}

func init() {
	tableBudget.Store(decodeBudget)
	programBudget.Store(decodeBudget)
	decoded.m.Store(new(sync.Map))
}

// decodeKey names one decoded instruction by the back end's capability set
// and lane count (decodeShape) and the instruction's fields, in plain words:
// a padded struct key hashes field by field, four times slower.
type decodeKey struct{ shape, instr, imm uint64 }

// decodeShape packs a back end's capability set and lane count into a word.
func decodeShape(spec *backends.Spec) uint64 {
	s := uint64(spec.Lanes) << micro.NumKinds
	for _, k := range spec.Caps.Kinds() {
		s |= 1 << k
	}
	return s
}

// expandEntry is one decoded datapath instruction: the slot-resolved recipe
// stream, and the kernel compiled from it for the key's lane count, built
// when a compiling machine first asks (kernel). Every round executes kern —
// the recorder puts kern itself into the trace — except on the NoTrace
// reference interpreter, which executes rops and never builds kern.
type expandEntry struct {
	rops  []micro.ResolvedOp
	kern  *vrf.CompiledExec
	once  sync.Once
	lanes int
}

// ropsBytes is what the resolved stream retains.
func (e *expandEntry) ropsBytes() int64 {
	return int64(len(e.rops)) * int64(unsafe.Sizeof(micro.ResolvedOp{}))
}

// kernel returns e's kernel, compiling it on the first call and charging
// its bytes to the table (to a new one if they empty it, or if e was
// emptied out: an overcharge, never an undercharge).
func (e *expandEntry) kernel() *vrf.CompiledExec {
	e.once.Do(func() {
		e.kern = vrf.CompileResolved(e.rops, e.lanes)
		decoded.mu.Lock()
		charge(e.kern.Bytes())
		decoded.mu.Unlock()
	})
	return e.kern
}

// charge adds n bytes to the table, emptying it first when they would take
// it past its budget. decoded.mu must be held.
func charge(n int64) {
	if decoded.bytes+n > tableBudget.Load() {
		decoded.m.Store(new(sync.Map))
		decoded.count, decoded.bytes = 0, 0
		decoded.flushes++
	}
	decoded.bytes += n
}

// DecodeTable describes the process-wide decode table: its entries, the
// bytes charged for them, and how many times it has been emptied.
type DecodeTable struct{ Entries, Bytes, Flushes int64 }

// DecodeTableStats samples the decode table.
func DecodeTableStats() DecodeTable {
	decoded.mu.Lock()
	defer decoded.mu.Unlock()
	return DecodeTable{decoded.count, decoded.bytes, decoded.flushes}
}

// expand returns the shared entry for in on this machine's back end. A hit
// takes no lock, the expansion runs outside it, and racing decoders leave
// with the entry published first.
func (m *Machine) expand(in isa.Instr) (*expandEntry, error) {
	k := decodeKey{m.shape, uint64(in.Op) | uint64(in.A)<<8 | uint64(in.B)<<16 | uint64(in.C)<<24 | uint64(in.D)<<32, uint64(uint32(in.Imm))}
	if e, ok := decoded.m.Load().Load(k); ok {
		return e.(*expandEntry), nil
	}
	_, rops, err := recipe.ExpandResolved(m.cfg.Spec.Caps, in)
	if err != nil {
		return nil, err
	}
	e := &expandEntry{rops: rops, lanes: m.cfg.Spec.Lanes}
	decoded.mu.Lock()
	defer decoded.mu.Unlock()
	if prev, ok := decoded.m.Load().Load(k); ok {
		return prev.(*expandEntry), nil
	}
	charge(e.ropsBytes())
	decoded.m.Load().Store(k, e)
	decoded.count++
	return e, nil
}

// decodeAt resolves the entry for the instruction at pc through the core's
// pc-indexed cache. Each distinct entry the program comes to hold is charged
// to it once, with the kernel it builds unless the machine is the reference
// interpreter; past programBudget the run fails with a capacity fault.
func (c *core) decodeAt(pc int) (*expandEntry, error) {
	if e := c.decode[pc]; e != nil {
		return e, nil
	}
	e, err := c.m.expand(c.prog[pc])
	if err != nil {
		return nil, err
	}
	if _, ok := c.held[e]; !ok {
		c.held[e] = struct{}{}
		c.heldBytes += e.ropsBytes()
		if !c.m.cfg.NoTrace {
			c.heldBytes += e.kernel().Bytes()
		}
		if c.heldBytes > programBudget.Load() {
			return nil, fmt.Errorf("machine: the program's decoded instructions hold %d bytes, past the %d-byte decode budget (%w)",
				c.heldBytes, programBudget.Load(), ErrCapacityFault)
		}
	}
	c.decode[pc] = e
	return e, nil
}

// clearDecode drops what the core decoded for its program: the pc-indexed
// cache, sized for n instructions, and the program's charge.
func (c *core) clearDecode(n int) {
	c.decode = make([]*expandEntry, n)
	clear(c.held)
	c.heldBytes = 0
}
