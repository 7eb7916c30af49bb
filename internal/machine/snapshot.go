package machine

import (
	"bytes"
	"fmt"
	"sort"

	"mpu/internal/controlpath"
	"mpu/internal/isa"
	"mpu/internal/micro"
	"mpu/internal/snap"
	"mpu/internal/trace"
	"mpu/internal/vrf"
)

// Machine snapshots serialize the complete architectural state — programs,
// pc/cycle/issue counters, rendezvous and mid-ensemble resume state, the
// per-core Stats account, return stacks, recipe-table residency and
// counters, playback-buffer overflow counts, every allocated VRF's planes,
// and the installed trace cache — to a versioned, checksummed binary
// stream. Restore rebuilds a compatible machine into exactly that state, so
// snapshot → restore → resume produces Stats and register contents
// byte-identical to an uninterrupted run (TestSnapshotResumeParity), and
// re-snapshotting a restored machine reproduces the input bytes
// (FuzzSnapshotRoundTrip).
//
// What is deliberately NOT serialized: the machine-wide expansion and JIT
// memos (pure content-keyed caches, rebuilt on demand and charged nowhere),
// the pc-indexed decode cache (same), and per-core scratch (act, tm, seg).
// JIT'd closure chains are recompiled on restore through the memo —
// compilation is a pure function of the recorded steps and the lane geometry,
// so the restored machine replays exactly as the snapshotted one did.

// snapMagic versions the snapshot format; bump it on any layout change.
const snapMagic = "MPUSNAP1"

// rasDepth is the per-core return-stack limit (New passes it to
// NewReturnStack); Restore validates frame counts against it before
// touching the live stack.
const rasDepth = 64

// Snapshot serializes the machine's architectural state. It must not be
// called while Run executes; the intended sequence is Run → ErrPreempted →
// Snapshot (or any quiesced point between runs).
func (m *Machine) Snapshot() []byte {
	w := snap.NewWriter()
	w.String(snapMagic)
	w.Bytes(m.fingerprint())
	w.Bool(m.midRun)
	for _, c := range m.mpus {
		c.encodeState(w)
	}
	return w.Finish()
}

// fingerprint captures the configuration a snapshot is only meaningful
// under: restoring into a machine with a different spec, mode, core count,
// activation limit, cost scaling, or engine configuration would resume with
// different charges. Workers is deliberately excluded — stats are
// byte-identical at any worker count, so snapshots move freely between
// sequential and parallel machines.
func (m *Machine) fingerprint() []byte {
	w := snap.NewWriter()
	spec := m.cfg.Spec
	w.String(spec.Name)
	w.Int(spec.Lanes)
	w.Int(spec.RFHsPerMPU)
	w.Int(spec.VRFsPerRFH)
	w.Int(int(m.cfg.Mode))
	w.Int(len(m.mpus))
	w.Int(m.limit)
	w.F64(m.cfg.ComputeScale)
	w.Int(m.cfg.MaxSteps)
	w.Bool(m.traceEnabled())
	w.Bool(false) // the retired step-replay switch; kept so existing snapshots still match
	w.Int(m.cfg.Recipe.CapacityMicroOps)
	w.Bool(m.cfg.Recipe.PointerTable)
	w.Bool(m.cfg.Recipe.TemplateLookup)
	w.Int(m.cfg.Recipe.MissPenaltyPer)
	h := m.cfg.Host
	w.I64(h.RoundTripCycles)
	w.I64(h.OnChipRoundTripCycles)
	w.F64(h.ReadbackBytesPerLane)
	w.F64(h.BusEnergyPJPerByte)
	w.F64(h.ActivePowerW)
	w.F64(h.OnChipActivePowerW)
	return w.Finish()
}

// Restore overwrites the machine's architectural state from a snapshot
// taken on an identically configured machine (fingerprint-checked; worker
// count may differ). The stream is fully decoded and validated before any
// machine state changes, so a failed Restore leaves the machine untouched
// (TestRestoreRejects*); the decoded coreState is then assigned whole, the
// same way Reset and Rewind set it.
func (m *Machine) Restore(data []byte) error {
	r, err := snap.NewReader(data)
	if err != nil {
		return err
	}
	if magic := r.String(); magic != snapMagic {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("machine: snapshot magic %q, want %q", magic, snapMagic)
	}
	fp := r.Bytes()
	if r.Err() == nil && !bytes.Equal(fp, m.fingerprint()) {
		return fmt.Errorf("machine: snapshot fingerprint does not match this machine's configuration (spec/mode/MPUs/limit/scale/engine)")
	}
	midRun := r.Bool()
	snaps := make([]coreSnap, len(m.mpus))
	for i := range snaps {
		if err := snaps[i].decodeCore(r, m); err != nil {
			return err
		}
	}
	if err := r.Close(); err != nil {
		return err
	}

	for i, c := range m.mpus {
		cs := &snaps[i]
		c.coreState = cs.coreState
		c.prog = cs.prog
		c.hdr = append(c.hdr[:0], cs.hdr...)
		c.ras.SetFrames(cs.frames) // length validated in decode
		c.rcache.RestoreEntries(cs.rentries)
		c.rcache.Hits = cs.rhits
		c.rcache.Misses = cs.rmisses
		c.rcache.StallCycles = cs.rstall
		c.pbuf.Overflows = cs.overflows
		c.vrfs = cs.vrfs
		c.decode = make([]*expandEntry, len(cs.prog))
		c.traces.RestoreEntries(cs.tentries)
		// Recompile the traces that were JIT'd when the snapshot was taken.
		// The memoized lowering is a pure function of the step stream and
		// lane count and charges nothing — JITCompiles already sits in the
		// restored local Stats — so the resumed run neither lowers nor counts
		// them a second time, exactly like the uninterrupted run.
		for j := range cs.tentries {
			if cs.hadProg[j] {
				t := cs.tentries[j].Tr
				t.Prog = m.jitMemo.Compile(t, m.cfg.Spec.Lanes) // non-nil: decode validated every kind
			}
		}
		c.act = c.act[:0]
		c.tm.Reset()
	}
	m.midRun = midRun
	m.preempt.Store(false)
	return nil
}

// coreSnap is one core's decoded state, held off to the side until the
// whole stream validates.
type coreSnap struct {
	coreState
	prog      isa.Program
	hdr       []controlpath.VRFAddr
	frames    []int
	rentries  []controlpath.ResidentEntry
	rhits     uint64
	rmisses   uint64
	rstall    int64
	overflows uint64
	vrfs      map[controlpath.VRFAddr]*vrf.VRF
	tentries  []trace.CacheEntry
	hadProg   []bool // per tentries entry: Prog was compiled when snapshotted
}

func (c *core) encodeState(w *snap.Writer) {
	w.Bytes(isa.EncodeProgram(c.prog))
	w.Int(c.pc)
	w.I64(c.cycles)
	w.I64(c.issue)
	w.Bool(c.done)
	w.Bool(c.blocked)
	w.Int(c.sendDst)
	w.Int(c.recvSrc)
	w.Bool(c.waitSend)
	w.Bool(c.waitRecv)
	w.Bool(c.ens.active)
	if c.ens.active {
		w.Int(c.ens.bodyStart)
		w.Int(c.ens.bodyLen)
		w.Bool(c.ens.fits)
		w.Int(c.ens.round)
		w.Int(c.ens.endPC)
		w.Int(len(c.hdr))
		for _, a := range c.hdr {
			w.U8(a.RFH)
			w.U8(a.VRF)
		}
	}
	encodeStats(w, &c.local)
	frames := c.ras.Frames()
	w.Int(len(frames))
	for _, f := range frames {
		w.Int(f)
	}
	rents := c.rcache.SnapshotEntries()
	w.Int(len(rents))
	for _, e := range rents {
		w.U8(e.Opcode)
		w.Int(e.Stored)
	}
	w.U64(c.rcache.Hits)
	w.U64(c.rcache.Misses)
	w.I64(c.rcache.StallCycles)
	w.U64(c.pbuf.Overflows)
	addrs := make([]controlpath.VRFAddr, 0, len(c.vrfs))
	for a := range c.vrfs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		if addrs[i].RFH != addrs[j].RFH {
			return addrs[i].RFH < addrs[j].RFH
		}
		return addrs[i].VRF < addrs[j].VRF
	})
	w.Int(len(addrs))
	for _, a := range addrs {
		w.U8(a.RFH)
		w.U8(a.VRF)
		c.vrfs[a].EncodeState(w)
	}
	tents := c.traces.SnapshotEntries()
	w.Int(len(tents))
	for _, e := range tents {
		encodeTraceEntry(w, e)
	}
}

func (cs *coreSnap) decodeCore(r *snap.Reader, m *Machine) error {
	progBytes := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	prog, err := isa.DecodeProgram(progBytes)
	if err != nil {
		return fmt.Errorf("machine: snapshot program: %w", err)
	}
	if err := prog.Validate(); err != nil {
		return fmt.Errorf("machine: snapshot program: %w", err)
	}
	cs.prog = prog
	cs.pc = r.Int()
	cs.cycles = r.I64()
	cs.issue = r.I64()
	cs.done = r.Bool()
	cs.blocked = r.Bool()
	cs.sendDst = r.Int()
	cs.recvSrc = r.Int()
	cs.waitSend = r.Bool()
	cs.waitRecv = r.Bool()
	if r.Err() == nil && (cs.sendDst < 0 || cs.sendDst >= len(m.mpus) || cs.recvSrc < 0 || cs.recvSrc >= len(m.mpus)) {
		return fmt.Errorf("machine: snapshot rendezvous partner out of range")
	}
	cs.ens.active = r.Bool()
	if r.Err() == nil && cs.ens.active {
		cs.ens.bodyStart = r.Int()
		cs.ens.bodyLen = r.Int()
		cs.ens.fits = r.Bool()
		cs.ens.round = r.Int()
		cs.ens.endPC = r.Int()
		n := r.Len(2)
		if err := r.Err(); err != nil {
			return err
		}
		if cs.ens.bodyStart < 0 || cs.ens.bodyLen < 1 || cs.ens.bodyStart+cs.ens.bodyLen > len(prog) ||
			cs.ens.round < 0 || cs.ens.endPC < 0 || n < 1 {
			return fmt.Errorf("machine: snapshot mid-ensemble state out of range")
		}
		cs.hdr = make([]controlpath.VRFAddr, n)
		for i := range cs.hdr {
			cs.hdr[i] = controlpath.VRFAddr{RFH: r.U8(), VRF: r.U8()}
			if r.Err() == nil {
				if err := m.checkAddr(cs.hdr[i]); err != nil {
					return err
				}
			}
		}
	}
	if err := decodeStats(r, &cs.local); err != nil {
		return err
	}
	nf := r.Len(8)
	if r.Err() == nil && nf > rasDepth {
		return fmt.Errorf("machine: snapshot return stack of %d frames exceeds depth %d", nf, rasDepth)
	}
	cs.frames = make([]int, nf)
	for i := range cs.frames {
		cs.frames[i] = r.Int()
	}
	nr := r.Len(9)
	cs.rentries = make([]controlpath.ResidentEntry, nr)
	for i := range cs.rentries {
		cs.rentries[i] = controlpath.ResidentEntry{Opcode: r.U8(), Stored: r.Int()}
	}
	if r.Err() == nil {
		// Dry-run the rebuild against a scratch cache so the live one is
		// never touched by an invalid stream.
		if err := controlpath.NewRecipeCache(m.cfg.Recipe).RestoreEntries(cs.rentries); err != nil {
			return err
		}
	}
	cs.rhits = r.U64()
	cs.rmisses = r.U64()
	cs.rstall = r.I64()
	cs.overflows = r.U64()
	nv := r.Len(2)
	if err := r.Err(); err != nil {
		return err
	}
	cs.vrfs = make(map[controlpath.VRFAddr]*vrf.VRF, nv)
	prev := controlpath.VRFAddr{}
	for i := 0; i < nv; i++ {
		a := controlpath.VRFAddr{RFH: r.U8(), VRF: r.U8()}
		if err := r.Err(); err != nil {
			return err
		}
		if err := m.checkAddr(a); err != nil {
			return err
		}
		if i > 0 && (a.RFH < prev.RFH || (a.RFH == prev.RFH && a.VRF <= prev.VRF)) {
			return fmt.Errorf("machine: snapshot VRFs not in canonical order")
		}
		prev = a
		v := vrf.New(m.cfg.Spec.Lanes)
		if err := v.DecodeState(r); err != nil {
			return err
		}
		cs.vrfs[a] = v
	}
	nt := r.Len(1)
	if err := r.Err(); err != nil {
		return err
	}
	cs.tentries = make([]trace.CacheEntry, 0, nt)
	cs.hadProg = make([]bool, 0, nt)
	prevKey := trace.Key{}
	for i := 0; i < nt; i++ {
		e, hadProg, err := decodeTraceEntry(r, len(prog))
		if err != nil {
			return err
		}
		if i > 0 && !keyLess(prevKey, e.Key) {
			return fmt.Errorf("machine: snapshot trace entries not in canonical order")
		}
		prevKey = e.Key
		cs.tentries = append(cs.tentries, e)
		cs.hadProg = append(cs.hadProg, hadProg)
	}
	return r.Err()
}

func keyLess(a, b trace.Key) bool {
	if a.BodyStart != b.BodyStart {
		return a.BodyStart < b.BodyStart
	}
	return a.BodyLen < b.BodyLen
}

// encodeStats writes a Stats block in struct-field order (the same order
// the JSON wire contract fixes in statsjson.go).
func encodeStats(w *snap.Writer, s *Stats) {
	w.I64(s.Cycles)
	w.Int(len(s.PerMPUCycles))
	for _, c := range s.PerMPUCycles {
		w.I64(c)
	}
	w.U64(s.Instructions)
	w.U64(s.MicroOps)
	w.U64(s.Rounds)
	w.U64(s.Ensembles)
	w.U64(s.Transfers)
	w.U64(s.Sends)
	w.U64(s.Offloads)
	w.U64(s.RecipeHits)
	w.U64(s.RecipeMisses)
	w.U64(s.PlaybackSpill)
	w.U64(s.TraceHits)
	w.U64(s.TraceMisses)
	w.U64(s.TraceFallbacks)
	w.U64(s.JITCompiles)
	w.U64(s.JITReplays)
	w.I64(s.ComputeCycles)
	w.I64(s.TransferCycles)
	w.I64(s.InterMPUCycles)
	w.I64(s.OffloadCycles)
	w.I64(s.DecodeStalls)
	w.F64(s.DatapathEnergyPJ)
	w.F64(s.FrontendStaticPJ)
	w.F64(s.FrontendDynamicPJ)
	w.F64(s.NoCEnergyPJ)
	w.F64(s.HostEnergyPJ)
}

func decodeStats(r *snap.Reader, s *Stats) error {
	s.Cycles = r.I64()
	n := r.Len(8)
	if err := r.Err(); err != nil {
		return err
	}
	if n > 0 {
		s.PerMPUCycles = make([]int64, n)
		for i := range s.PerMPUCycles {
			s.PerMPUCycles[i] = r.I64()
		}
	}
	s.Instructions = r.U64()
	s.MicroOps = r.U64()
	s.Rounds = r.U64()
	s.Ensembles = r.U64()
	s.Transfers = r.U64()
	s.Sends = r.U64()
	s.Offloads = r.U64()
	s.RecipeHits = r.U64()
	s.RecipeMisses = r.U64()
	s.PlaybackSpill = r.U64()
	s.TraceHits = r.U64()
	s.TraceMisses = r.U64()
	s.TraceFallbacks = r.U64()
	s.JITCompiles = r.U64()
	s.JITReplays = r.U64()
	s.ComputeCycles = r.I64()
	s.TransferCycles = r.I64()
	s.InterMPUCycles = r.I64()
	s.OffloadCycles = r.I64()
	s.DecodeStalls = r.I64()
	s.DatapathEnergyPJ = r.F64()
	s.FrontendStaticPJ = r.F64()
	s.FrontendDynamicPJ = r.F64()
	s.NoCEnergyPJ = r.F64()
	s.HostEnergyPJ = r.F64()
	return r.Err()
}

func encodeTraceEntry(w *snap.Writer, e trace.CacheEntry) {
	w.Int(e.Key.BodyStart)
	w.Int(e.Key.BodyLen)
	w.Bool(e.Classified)
	w.Bool(e.Eligible)
	w.Bool(e.Done)
	w.Bool(e.Tr != nil)
	if e.Tr == nil {
		return
	}
	t := e.Tr
	w.Int(len(t.Steps))
	for i := range t.Steps {
		s := &t.Steps[i]
		w.U8(uint8(s.Kind))
		w.U8(s.Arg)
		w.Int(len(s.Ops))
		for _, op := range s.Ops {
			w.U8(uint8(op.Kind))
			w.U16(uint16(op.Dst))
			w.U16(uint16(op.Dst2))
			w.U16(uint16(op.A))
			w.U16(uint16(op.B))
			w.U16(uint16(op.C))
		}
	}
	w.Int(t.EndPC)
	w.I64(t.Cycles)
	w.I64(t.Issue)
	w.U64(t.Instructions)
	w.I64(t.ComputeCycles)
	w.U64(t.MicroOpsPerVRF)
	w.F64(t.EnergyPerVRF)
	w.U64(t.Offloads)
	w.I64(t.OffloadCycles)
	w.F64(t.HostEnergyPJ)
	w.Int(len(t.Lookups))
	for _, l := range t.Lookups {
		w.U8(l.Opcode)
		w.Int(l.MicroOps)
	}
	w.U64(t.NumLookups)
	w.Int(len(t.TouchOrder))
	for _, op := range t.TouchOrder {
		w.U8(op)
	}
	// Two bools for one fact: the format once told a concluded lowering
	// attempt apart from a successful one, and no lowering fails any more.
	w.Bool(t.Prog != nil)
	w.Bool(t.Prog != nil)
}

func decodeTraceEntry(r *snap.Reader, progLen int) (trace.CacheEntry, bool, error) {
	var e trace.CacheEntry
	e.Key.BodyStart = r.Int()
	e.Key.BodyLen = r.Int()
	e.Classified = r.Bool()
	e.Eligible = r.Bool()
	e.Done = r.Bool()
	hasTr := r.Bool()
	if err := r.Err(); err != nil {
		return e, false, err
	}
	if e.Key.BodyStart < 0 || e.Key.BodyLen < 0 || e.Key.BodyStart+e.Key.BodyLen > progLen {
		return e, false, fmt.Errorf("machine: snapshot trace key outside the program")
	}
	if !hasTr {
		return e, false, nil
	}
	t := &trace.Trace{}
	ns := r.Len(3)
	if err := r.Err(); err != nil {
		return e, false, err
	}
	t.Steps = make([]trace.Step, ns)
	for i := range t.Steps {
		s := &t.Steps[i]
		s.Kind = trace.StepKind(r.U8())
		s.Arg = r.U8()
		if r.Err() == nil {
			if s.Kind > trace.StepGetMask {
				return e, false, fmt.Errorf("machine: snapshot trace step kind %d unknown", s.Kind)
			}
			if (s.Kind == trace.StepSetMaskReg || s.Kind == trace.StepGetMask) && int(s.Arg) >= isa.NumRegs {
				return e, false, fmt.Errorf("machine: snapshot trace step register %d out of range", s.Arg)
			}
		}
		no := r.Len(11)
		if err := r.Err(); err != nil {
			return e, false, err
		}
		if no > 0 {
			s.Ops = make([]micro.ResolvedOp, no)
			for j := range s.Ops {
				op := &s.Ops[j]
				op.Kind = micro.Kind(r.U8())
				op.Dst = micro.Slot(r.U16())
				op.Dst2 = micro.Slot(r.U16())
				op.A = micro.Slot(r.U16())
				op.B = micro.Slot(r.U16())
				op.C = micro.Slot(r.U16())
				if r.Err() == nil {
					if err := validateResolvedOp(op); err != nil {
						return e, false, err
					}
				}
			}
		}
	}
	t.EndPC = r.Int()
	t.Cycles = r.I64()
	t.Issue = r.I64()
	t.Instructions = r.U64()
	t.ComputeCycles = r.I64()
	t.MicroOpsPerVRF = r.U64()
	t.EnergyPerVRF = r.F64()
	t.Offloads = r.U64()
	t.OffloadCycles = r.I64()
	t.HostEnergyPJ = r.F64()
	nl := r.Len(9)
	if err := r.Err(); err != nil {
		return e, false, err
	}
	if nl > 0 {
		t.Lookups = make([]controlpath.LookupPair, nl)
		for i := range t.Lookups {
			t.Lookups[i] = controlpath.LookupPair{Opcode: r.U8(), MicroOps: r.Int()}
		}
	}
	t.NumLookups = r.U64()
	nto := r.Len(1)
	if err := r.Err(); err != nil {
		return e, false, err
	}
	if nto > 0 {
		t.TouchOrder = make([]uint8, nto)
		for i := range t.TouchOrder {
			t.TouchOrder[i] = r.U8()
		}
	}
	compiled := r.Bool()
	hadProg := r.Bool()
	if r.Err() == nil && hadProg != compiled {
		return e, false, fmt.Errorf("machine: snapshot trace's two JIT-program flags disagree")
	}
	e.Tr = t
	return e, hadProg, r.Err()
}

// validateResolvedOp rejects resolved micro-ops no recorder could have
// produced, mirroring micro.Resolve's guarantees: every slot addresses a
// real plane below the (never operand-addressable) mask slot, and the
// destinations never name a constant plane. Restored traces execute on the
// unchecked fast path, so the stream is where the checking happens.
func validateResolvedOp(op *micro.ResolvedOp) error {
	if int(op.Kind) >= micro.NumKinds {
		return fmt.Errorf("machine: snapshot micro-op kind %d unknown", op.Kind)
	}
	for _, s := range [...]micro.Slot{op.Dst, op.Dst2, op.A, op.B, op.C} {
		if s >= micro.SlotMask {
			return fmt.Errorf("machine: snapshot micro-op slot %d out of range", s)
		}
	}
	if op.Dst == micro.SlotZero || op.Dst == micro.SlotOne || op.Dst2 == micro.SlotOne {
		return fmt.Errorf("machine: snapshot micro-op writes a constant plane")
	}
	return nil
}
