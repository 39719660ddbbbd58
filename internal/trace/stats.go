package trace

// Summary aggregates simple stream-level counts; it is what
// cmd/tracedump prints and what workload-generator tests assert on.
type Summary struct {
	Total     uint64
	ByOp      map[Op]uint64
	ByKind    map[Kind]uint64
	ByClass   map[DataClass]uint64
	ByCPU     map[uint8]uint64
	BlockRefs uint64 // data refs inside block operations
	BlockOps  uint64 // distinct block-operation ids seen
	Syncs     uint64 // lock/barrier operations
	DataReads uint64
	Writes    uint64
	Instrs    uint64
	Prefetch  uint64
	DMAOps    uint64
}

// Summarize drains a source and aggregates its counts.
func Summarize(src Source) Summary {
	s := Summary{
		ByOp:    make(map[Op]uint64),
		ByKind:  make(map[Kind]uint64),
		ByClass: make(map[DataClass]uint64),
		ByCPU:   make(map[uint8]uint64),
	}
	blocks := make(map[uint32]struct{})
	var buf [256]Ref
	for n := src.Read(buf[:]); n > 0; n = src.Read(buf[:]) {
		for _, r := range buf[:n] {
			s.Total++
			s.ByOp[r.Op]++
			s.ByKind[r.Kind]++
			s.ByCPU[r.CPU]++
			switch r.Op {
			case OpInstr:
				s.Instrs++
			case OpRead:
				s.DataReads++
				s.ByClass[r.Class]++
			case OpWrite:
				s.Writes++
				s.ByClass[r.Class]++
			case OpPrefetch:
				s.Prefetch++
			case OpBlockDMA:
				s.DMAOps++
			}
			if r.Block != 0 && r.Op.IsData() {
				s.BlockRefs++
				blocks[r.Block] = struct{}{}
			}
			if r.Sync != SyncNone {
				s.Syncs++
			}
		}
	}
	s.BlockOps = uint64(len(blocks))
	return s
}
