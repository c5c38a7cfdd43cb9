package dram

// ReqKind enumerates the memory operations the controller understands.
type ReqKind int

const (
	// ReqRead is a conventional burst read (BurstBytes).
	ReqRead ReqKind = iota
	// ReqWrite is a conventional burst write.
	ReqWrite
	// ReqGather is a Piccolo-FIM in-bank gather (§IV-B): offsets written
	// over the data bus, k column reads confined to one open row, one (or
	// FIMDataBursts) data-buffer read transfers back.
	ReqGather
	// ReqScatter is a Piccolo-FIM in-bank scatter.
	ReqScatter
	// ReqNMPGather is the rank-level near-memory gather of the NMP
	// baseline [37]: a buffer chip issues k full-burst reads on the rank's
	// internal bus and returns one packed burst to the host.
	ReqNMPGather
	// ReqNMPScatter is the rank-level near-memory scatter.
	ReqNMPScatter
	// ReqPIMUpdate is the near-bank PIM baseline's [62] offloaded
	// reduce: a read-modify-write at the bank, with update packets packed
	// four per host-bus burst.
	ReqPIMUpdate
)

func (k ReqKind) String() string {
	switch k {
	case ReqRead:
		return "read"
	case ReqWrite:
		return "write"
	case ReqGather:
		return "gather"
	case ReqScatter:
		return "scatter"
	case ReqNMPGather:
		return "nmp-gather"
	case ReqNMPScatter:
		return "nmp-scatter"
	case ReqPIMUpdate:
		return "pim-update"
	}
	return "unknown"
}

// Class attributes traffic to the request streams of Algorithm 1, so the
// experiments can break accesses down the way Figs. 3 and 12 do.
type Class int

const (
	ClassTopology  Class = iota // CSR row/column indices
	ClassSrcProp                // sequential Vprop[u] reads
	ClassVTemp                  // random Vtemp[v] accesses
	ClassWriteback              // dirty evictions
	ClassApply                  // apply-phase sequential scans
	ClassControl                // FIM offset/descriptor transfers
	ClassOther
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassTopology:
		return "topology"
	case ClassSrcProp:
		return "srcprop"
	case ClassVTemp:
		return "vtemp"
	case ClassWriteback:
		return "writeback"
	case ClassApply:
		return "apply"
	case ClassControl:
		return "control"
	}
	return "other"
}

// Request is one memory operation submitted to the controller.
//
// For ReqRead/ReqWrite, Addr is the byte address of the burst. For
// ReqGather/ReqScatter, Addr locates the target row and Items counts the 8B
// words collected into the operation (1..Config.FIMItems). For NMP requests,
// ItemAddrs lists the per-item byte addresses (same rank, any bank/row).
// For ReqPIMUpdate, Addr is the 8B word being reduced in memory.
//
// OnComplete (optional) fires when the request's data transfer finishes. It
// receives the request so that one function bound once can serve every
// request of an engine, with Tag carrying the per-request value a closure
// would have captured.
//
// Ownership: from Submit until OnComplete returns the request belongs to
// the System and the submitter must not modify it. A request obtained from
// System.NewRequest is then recycled — a later NewRequest hands the same
// object out again — so it must not be retained past OnComplete. A request
// the caller allocated itself is never recycled.
type Request struct {
	Kind       ReqKind
	Addr       uint64
	Items      int
	ItemAddrs  []uint64
	Class      Class
	Tag        uint64
	OnComplete func(req *Request, now uint64)

	sys    *System // set at submit
	loc    Loc     // decoded at submit
	pooled bool    // came from System.NewRequest
}

// reqFIFO is a request queue that dequeues near its head without giving up
// its backing array: the head advances over vacated (nil) slots, and the
// live part moves back to the front only when an append would otherwise
// grow the array.
type reqFIFO struct {
	buf  []*Request
	head int
}

func (f *reqFIFO) len() int { return len(f.buf) - f.head }

// at returns the i-th oldest queued request.
func (f *reqFIFO) at(i int) *Request { return f.buf[f.head+i] }

func (f *reqFIFO) push(r *Request) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, r)
}

// remove dequeues the i-th oldest request, keeping the others in order. The
// vacated slot is nil-ed so the queue never keeps a dequeued request
// reachable — it may be recycled and resubmitted while older queue slots
// would still alias it.
func (f *reqFIFO) remove(i int) *Request {
	r := f.buf[f.head+i]
	copy(f.buf[f.head+1:f.head+i+1], f.buf[f.head:f.head+i])
	f.buf[f.head] = nil
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return r
}
