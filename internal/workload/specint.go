package workload

import "largewindow/internal/isa"

// SPEC CINT2000 stand-ins: branchy integer kernels with modest data-cache
// miss ratios (1-4%), where the WIB's gains are the smallest of the three
// suites (20% average in the paper).

func init() {
	register("bzip2", SuiteInt, buildBzip2)
	register("gcc", SuiteInt, buildGcc)
	register("gzip", SuiteInt, buildGzip)
	register("parser", SuiteInt, buildParser)
	register("perlbmk", SuiteInt, buildPerlbmk)
	register("vortex", SuiteInt, buildVortex)
	register("vpr", SuiteInt, buildVpr)
}

// buildBzip2 performs a move-to-front transform over a data block: a
// data-dependent scan of a 256-entry table per symbol plus a shift loop —
// hot table (cache resident) with a streaming input block.
func buildBzip2(s Scale) *isa.Program {
	blockWords := pick3(s, 256, 65536, 400000)
	b := isa.NewBuilder("bzip2")
	r := newPRNG(31)
	block := b.AllocWords(uint64(blockWords))
	mtf := b.AllocWords(256)
	outv := b.AllocWords(uint64(blockWords))
	for i := 0; i < blockWords; i++ {
		// Skewed symbol distribution so MTF ranks stay small and branchy.
		sym := r.intn(16)
		if r.intn(4) == 0 {
			sym = r.intn(256)
		}
		b.SetWord(block+uint64(i)*8, uint64(sym))
	}
	for i := 0; i < 256; i++ {
		b.SetWord(mtf+uint64(i)*8, uint64(i))
	}

	b.LiAddr(isa.S0, block)
	b.LiAddr(isa.S1, mtf)
	b.LiAddr(isa.S2, outv)
	b.Li(isa.S3, int32(pick3(s, 256, 40000, 400000)))
	b.Li64(isa.S4, 0x9e3779b97f4a7c15) // index hash state
	sym := b.Here()
	// Pseudo-random block index: the symbol fetch misses like a real
	// post-BWT block walk.
	b.Mul(isa.S4, isa.S4, isa.S4)
	b.Addi(isa.S4, isa.S4, 99)
	b.Srli(isa.T0, isa.S4, 24)
	b.Li(isa.T2, int32(blockWords-1))
	b.And(isa.T0, isa.T0, isa.T2)
	b.Slli(isa.T0, isa.T0, 3)
	b.Add(isa.T0, isa.T0, isa.S0)
	b.Ld(isa.T0, isa.T0, 0) // symbol (scattered)
	// Find rank: scan mtf table until match.
	b.Li(isa.T1, 0) // rank
	b.Mov(isa.T2, isa.S1)
	scan := b.Here()
	found := b.NewLabel()
	b.Ld(isa.T3, isa.T2, 0)
	b.Beq(isa.T3, isa.T0, found)
	b.Addi(isa.T2, isa.T2, 8)
	b.Addi(isa.T1, isa.T1, 1)
	b.J(scan)
	b.Bind(found)
	b.St(isa.T1, isa.S2, 0)
	// Move to front: shift mtf[0..rank-1] up by one, data-dependent trip.
	noShift := b.NewLabel()
	b.Beq(isa.T1, isa.Zero, noShift)
	shift := b.Here()
	b.Ld(isa.T4, isa.T2, -8)
	b.St(isa.T4, isa.T2, 0)
	b.Addi(isa.T2, isa.T2, -8)
	b.Addi(isa.T1, isa.T1, -1)
	b.Bne(isa.T1, isa.Zero, shift)
	b.St(isa.T0, isa.S1, 0)
	b.Bind(noShift)
	b.Addi(isa.S0, isa.S0, 8)
	b.Addi(isa.S2, isa.S2, 8)
	b.Addi(isa.S3, isa.S3, -1)
	b.Bne(isa.S3, isa.Zero, sym)
	b.Halt()
	return b.MustBuild()
}

// buildGcc walks a large list of IR nodes dispatching on the node kind
// (compare-branch trees standing in for switch statements) and rewriting
// operand fields: a big, low-reuse pointer working set.
func buildGcc(s Scale) *isa.Program {
	nodes := pick3(s, 256, 800, 200000)
	passes := pick3(s, 2, 40, 60)
	b := isa.NewBuilder("gcc")
	r := newPRNG(37)
	// Node: {next, kind, op1, op2} 32 bytes, allocation order shuffled.
	order := make([]int, nodes)
	addrs := make([]uint64, nodes)
	for i := range order {
		order[i] = i
		addrs[i] = b.Alloc(32)
	}
	r.shuffle(order)
	for i := 0; i < nodes; i++ {
		n := addrs[order[i]]
		if i+1 < nodes {
			b.SetWord(n, addrs[order[i+1]])
		}
		kind := uint64(0)
		if r.intn(10) < 3 {
			kind = uint64(1 + r.intn(3))
		}
		b.SetWord(n+8, kind)
		b.SetWord(n+16, r.next()%1000)
		b.SetWord(n+24, r.next()%1000)
	}
	head := addrs[order[0]]

	b.Li(isa.S5, int32(passes))
	pass := b.Here()
	b.LiAddr(isa.S0, head)
	node := b.Here()
	k1 := b.NewLabel()
	k2 := b.NewLabel()
	k3 := b.NewLabel()
	next := b.NewLabel()
	b.Ld(isa.T0, isa.S0, 8)  // kind
	b.Ld(isa.T1, isa.S0, 16) // op1
	b.Ld(isa.T2, isa.S0, 24) // op2
	b.Li(isa.T3, 1)
	b.Beq(isa.T0, isa.T3, k1)
	b.Li(isa.T3, 2)
	b.Beq(isa.T0, isa.T3, k2)
	b.Li(isa.T3, 3)
	b.Beq(isa.T0, isa.T3, k3)
	// kind 0: constant-fold add
	b.Add(isa.T1, isa.T1, isa.T2)
	b.St(isa.T1, isa.S0, 16)
	b.J(next)
	b.Bind(k1) // strength-reduce multiply
	b.Slli(isa.T1, isa.T1, 1)
	b.Add(isa.T1, isa.T1, isa.T2)
	b.St(isa.T1, isa.S0, 24)
	b.J(next)
	b.Bind(k2) // compare-and-set
	cs := b.NewLabel()
	b.Blt(isa.T1, isa.T2, cs)
	b.St(isa.T2, isa.S0, 16)
	b.Bind(cs)
	b.J(next)
	b.Bind(k3) // xor hash
	b.Xor(isa.T1, isa.T1, isa.T2)
	b.Srli(isa.T2, isa.T1, 3)
	b.Xor(isa.T1, isa.T1, isa.T2)
	b.St(isa.T1, isa.S0, 16)
	b.Bind(next)
	b.Ld(isa.S0, isa.S0, 0)
	b.Bne(isa.S0, isa.Zero, node)
	b.Addi(isa.S5, isa.S5, -1)
	b.Bne(isa.S5, isa.Zero, pass)
	b.Halt()
	return b.MustBuild()
}

// buildGzip is an LZ77 matcher: hash the next two words, walk the hash
// chain comparing candidate positions, record the best match length —
// data-dependent inner loops over a streaming text buffer.
func buildGzip(s Scale) *isa.Program {
	textWords := pick3(s, 512, 16384, 250000)
	b := isa.NewBuilder("gzip")
	r := newPRNG(41)
	text := b.AllocWords(uint64(textWords))
	const hashEntries = 4096
	heads := b.AllocWords(hashEntries)
	outv := b.AllocWords(uint64(textWords))
	// Text with repetitions so matches exist.
	vocab := make([]uint64, 64)
	for i := range vocab {
		vocab[i] = r.next() % 512
	}
	for i := 0; i < textWords; i++ {
		b.SetWord(text+uint64(i)*8, vocab[r.intn(len(vocab))])
	}

	b.LiAddr(isa.S0, text)
	b.LiAddr(isa.S1, heads)
	b.LiAddr(isa.S2, outv)
	b.Li(isa.S3, int32(textWords-8))
	b.Li(isa.S4, 0) // position index
	posL := b.Here()
	// h = (w0*31 ^ w1) & (hashEntries-1)
	b.Ld(isa.T0, isa.S0, 0)
	b.Ld(isa.T1, isa.S0, 8)
	b.Li(isa.T2, 31)
	b.Mul(isa.T2, isa.T0, isa.T2)
	b.Xor(isa.T2, isa.T2, isa.T1)
	b.Andi(isa.T2, isa.T2, hashEntries-1)
	b.Slli(isa.T2, isa.T2, 3)
	b.Add(isa.T2, isa.T2, isa.S1)
	b.Ld(isa.T3, isa.T2, 0) // chain head: candidate position+1 (0 = none)
	// Store current position+1 as the new head.
	b.Addi(isa.T4, isa.S4, 1)
	b.St(isa.T4, isa.T2, 0)
	noCand := b.NewLabel()
	b.Beq(isa.T3, isa.Zero, noCand)
	// Compare up to 4 words at candidate vs current.
	b.Addi(isa.T3, isa.T3, -1) // candidate index
	b.Slli(isa.T3, isa.T3, 3)
	b.LiAddr(isa.T4, text)
	b.Add(isa.T3, isa.T3, isa.T4) // candidate ptr
	b.Li(isa.T5, 0)               // match length
	cmp := b.Here()
	stop := b.NewLabel()
	b.Slli(isa.U0, isa.T5, 3)
	b.Add(isa.U1, isa.S0, isa.U0)
	b.Ld(isa.U2, isa.U1, 0)
	b.Add(isa.U1, isa.T3, isa.U0)
	b.Ld(isa.U3, isa.U1, 0)
	b.Bne(isa.U2, isa.U3, stop)
	b.Addi(isa.T5, isa.T5, 1)
	b.Slti(isa.U0, isa.T5, 4)
	b.Bne(isa.U0, isa.Zero, cmp)
	b.Bind(stop)
	b.St(isa.T5, isa.S2, 0)
	b.Bind(noCand)
	b.Addi(isa.S0, isa.S0, 8)
	b.Addi(isa.S2, isa.S2, 8)
	b.Addi(isa.S4, isa.S4, 1)
	b.Addi(isa.S3, isa.S3, -1)
	b.Bne(isa.S3, isa.Zero, posL)
	b.Halt()
	return b.MustBuild()
}

// buildParser looks pseudo-random tokens up in a chained hash dictionary,
// inserting on miss: scattered chain nodes with short data-dependent
// walks.
func buildParser(s Scale) *isa.Program {
	lookups := pick3(s, 300, 50000, 300000)
	buckets := pick3(s, 64, 1024, 16384)
	poolN := pick3(s, 128, 800, 120000)
	b := isa.NewBuilder("parser")
	r := newPRNG(43)
	table := b.AllocWords(uint64(buckets)) // bucket heads
	// Pre-populate chains with scattered nodes {next, key, count}.
	nodeAddrs := make([]uint64, poolN)
	order := make([]int, poolN)
	for i := range nodeAddrs {
		nodeAddrs[i] = b.Alloc(24)
		order[i] = i
	}
	r.shuffle(order)
	heads := make([]uint64, buckets)
	for _, oi := range order {
		key := r.next() % 2048
		h := int(key % uint64(buckets))
		n := nodeAddrs[oi]
		b.SetWord(n, heads[h])
		b.SetWord(n+8, key)
		heads[h] = n
	}
	for h := 0; h < buckets; h++ {
		b.SetWord(table+uint64(h)*8, heads[h])
	}

	// LCG over keys; for each: hash, walk chain, bump count when found.
	b.LiAddr(isa.S0, table)
	b.Li(isa.S3, int32(lookups))
	b.Li64(isa.S1, 0x5deece66d)
	b.Li(isa.S2, 12345) // lcg state
	look := b.Here()
	b.Mul(isa.S2, isa.S2, isa.S1)
	b.Addi(isa.S2, isa.S2, 11)
	b.Srli(isa.T0, isa.S2, 16)
	b.Andi(isa.T0, isa.T0, 2047) // key (power-of-two space)
	b.Li(isa.T1, int32(buckets-1))
	b.And(isa.T2, isa.T0, isa.T1) // bucket (buckets is a power of two)
	b.Slli(isa.T2, isa.T2, 3)
	b.Add(isa.T2, isa.T2, isa.S0)
	b.Ld(isa.T3, isa.T2, 0) // head
	walk := b.Here()
	miss := b.NewLabel()
	hit := b.NewLabel()
	donew := b.NewLabel()
	b.Beq(isa.T3, isa.Zero, miss)
	b.Ld(isa.T4, isa.T3, 8) // node key (scattered)
	b.Beq(isa.T4, isa.T0, hit)
	b.Ld(isa.T3, isa.T3, 0) // next
	b.J(walk)
	b.Bind(hit)
	b.Ld(isa.T5, isa.T3, 16)
	b.Addi(isa.T5, isa.T5, 1)
	b.St(isa.T5, isa.T3, 16)
	b.J(donew)
	b.Bind(miss) // count global misses
	b.Addi(isa.A0, isa.A0, 1)
	b.Bind(donew)
	b.Addi(isa.S3, isa.S3, -1)
	b.Bne(isa.S3, isa.Zero, look)
	b.Halt()
	return b.MustBuild()
}

// buildPerlbmk interprets a bytecode program over a small operand stack:
// an opcode fetch plus a compare-branch dispatch tree per instruction —
// very branchy, nearly cache-resident.
func buildPerlbmk(s Scale) *isa.Program {
	codeLen := pick3(s, 512, 4096, 65536)
	steps := pick3(s, 2000, 120000, 800000)
	b := isa.NewBuilder("perlbmk")
	r := newPRNG(47)
	bytecode := b.AllocWords(uint64(codeLen))
	stack := b.AllocWords(64)
	vars := b.AllocWords(256)
	for i := 0; i < codeLen; i++ {
		op := uint64(r.intn(6))
		arg := uint64(r.intn(256))
		b.SetWord(bytecode+uint64(i)*8, op<<32|arg)
	}

	// S0=code base, S1=pc, S2=stack ptr (top), S3=steps, S4=vars.
	b.LiAddr(isa.S0, bytecode)
	b.Li(isa.S1, 0)
	b.LiAddr(isa.S2, stack+256) // mid-stack
	b.LiAddr(isa.S4, vars)
	b.Li(isa.S3, int32(steps))
	step := b.Here()
	op1 := b.NewLabel()
	op2 := b.NewLabel()
	op3 := b.NewLabel()
	op4 := b.NewLabel()
	op5 := b.NewLabel()
	nextI := b.NewLabel()
	b.Slli(isa.T0, isa.S1, 3)
	b.Add(isa.T0, isa.T0, isa.S0)
	b.Ld(isa.T1, isa.T0, 0)
	b.Srli(isa.T2, isa.T1, 32)  // opcode
	b.Andi(isa.T3, isa.T1, 255) // arg
	b.Li(isa.T4, 1)
	b.Beq(isa.T2, isa.T4, op1)
	b.Li(isa.T4, 2)
	b.Beq(isa.T2, isa.T4, op2)
	b.Li(isa.T4, 3)
	b.Beq(isa.T2, isa.T4, op3)
	b.Li(isa.T4, 4)
	b.Beq(isa.T2, isa.T4, op4)
	b.Li(isa.T4, 5)
	b.Beq(isa.T2, isa.T4, op5)
	// op0: push arg
	b.Addi(isa.S2, isa.S2, 8)
	b.St(isa.T3, isa.S2, 0)
	b.J(nextI)
	b.Bind(op1) // add top two (clamped stack)
	b.Ld(isa.T4, isa.S2, 0)
	b.Ld(isa.T5, isa.S2, -8)
	b.Add(isa.T4, isa.T4, isa.T5)
	b.St(isa.T4, isa.S2, -8)
	b.Addi(isa.S2, isa.S2, -8)
	b.J(nextI)
	b.Bind(op2) // load var
	b.Slli(isa.T4, isa.T3, 3)
	b.Add(isa.T4, isa.T4, isa.S4)
	b.Ld(isa.T5, isa.T4, 0)
	b.Addi(isa.S2, isa.S2, 8)
	b.St(isa.T5, isa.S2, 0)
	b.J(nextI)
	b.Bind(op3) // store var
	b.Ld(isa.T5, isa.S2, 0)
	b.Slli(isa.T4, isa.T3, 3)
	b.Add(isa.T4, isa.T4, isa.S4)
	b.St(isa.T5, isa.T4, 0)
	b.Addi(isa.S2, isa.S2, -8)
	b.J(nextI)
	b.Bind(op4) // conditional relative jump (arg mod 7) if top odd
	even := b.NewLabel()
	b.Ld(isa.T5, isa.S2, 0)
	b.Andi(isa.T5, isa.T5, 1)
	b.Beq(isa.T5, isa.Zero, even)
	b.Andi(isa.T4, isa.T3, 7)
	b.Add(isa.S1, isa.S1, isa.T4)
	b.Bind(even)
	b.J(nextI)
	b.Bind(op5) // xor-mix top
	b.Ld(isa.T5, isa.S2, 0)
	b.Slli(isa.T4, isa.T5, 3)
	b.Xor(isa.T5, isa.T5, isa.T4)
	b.St(isa.T5, isa.S2, 0)
	b.Bind(nextI)
	// pc = (pc + 1) mod codeLen; clamp stack pointer into range.
	b.Addi(isa.S1, isa.S1, 1)
	b.Li(isa.T4, int32(codeLen-1))
	b.And(isa.S1, isa.S1, isa.T4)
	b.LiAddr(isa.T4, stack+64)
	inRange := b.NewLabel()
	b.Bge(isa.S2, isa.T4, inRange)
	b.LiAddr(isa.S2, stack+256)
	b.Bind(inRange)
	b.LiAddr(isa.T4, stack+448)
	inRange2 := b.NewLabel()
	b.Blt(isa.S2, isa.T4, inRange2)
	b.LiAddr(isa.S2, stack+256)
	b.Bind(inRange2)
	b.Addi(isa.S3, isa.S3, -1)
	b.Bne(isa.S3, isa.Zero, step)
	b.Halt()
	return b.MustBuild()
}

// buildVortex performs object-database transactions: descend a B-tree-
// style index (hot top levels, cold leaves), then read-modify-write
// fields of a scattered record.
func buildVortex(s Scale) *isa.Program {
	records := pick3(s, 256, 700, 200000)
	txns := pick3(s, 400, 40000, 250000)
	const fanout = 16
	b := isa.NewBuilder("vortex")
	r := newPRNG(53)
	// Records: 64-byte objects scattered.
	recAddrs := make([]uint64, records)
	order := make([]int, records)
	for i := range recAddrs {
		recAddrs[i] = b.Alloc(64)
		order[i] = i
	}
	r.shuffle(order)
	// Index: levels of pointer arrays, leaves point at records.
	level := make([]uint64, records)
	for i := 0; i < records; i++ {
		level[i] = recAddrs[order[i]]
	}
	for len(level) > 1 {
		up := make([]uint64, (len(level)+fanout-1)/fanout)
		for i := range up {
			nodeWords := fanout
			node := b.AllocWords(uint64(nodeWords))
			for j := 0; j < fanout; j++ {
				child := level[min(i*fanout+j, len(level)-1)]
				b.SetWord(node+uint64(j)*8, child)
			}
			up[i] = node
		}
		level = up
	}
	root := level[0]
	depth := 0
	for c := records; c > 1; c = (c + fanout - 1) / fanout {
		depth++
	}

	// LCG picks a key; descend `depth` levels using 4-bit digits of the
	// key; then increment two fields of the record.
	b.LiAddr(isa.S0, root)
	b.Li(isa.S3, int32(txns))
	b.Li64(isa.S1, 6364136223846793005)
	b.Li(isa.S2, 99)
	txn := b.Here()
	b.Mul(isa.S2, isa.S2, isa.S1)
	b.Addi(isa.S2, isa.S2, 1442695)
	b.Mov(isa.T0, isa.S0)      // cursor
	b.Srli(isa.T1, isa.S2, 20) // key digits
	for d := 0; d < depth; d++ {
		b.Andi(isa.T2, isa.T1, fanout-1)
		b.Slli(isa.T2, isa.T2, 3)
		b.Add(isa.T2, isa.T2, isa.T0)
		b.Ld(isa.T0, isa.T2, 0)
		b.Srli(isa.T1, isa.T1, 4)
	}
	// Record update.
	b.Ld(isa.T3, isa.T0, 0)
	b.Addi(isa.T3, isa.T3, 1)
	b.St(isa.T3, isa.T0, 0)
	b.Ld(isa.T4, isa.T0, 32)
	b.Add(isa.T4, isa.T4, isa.T3)
	b.St(isa.T4, isa.T0, 32)
	b.Addi(isa.S3, isa.S3, -1)
	b.Bne(isa.S3, isa.Zero, txn)
	b.Halt()
	return b.MustBuild()
}

// buildVpr evaluates random placement swaps on a grid of cells: random
// indexed reads of cell costs, a data-dependent accept branch, and
// occasional writes — scattered accesses with mispredictable branches.
func buildVpr(s Scale) *isa.Program {
	gridCells := pick3(s, 1024, 4096, 262144)
	moves := pick3(s, 500, 40000, 300000)
	b := isa.NewBuilder("vpr")
	r := newPRNG(59)
	grid := b.AllocWords(uint64(gridCells))
	for i := 0; i < gridCells; i++ {
		b.SetWord(grid+uint64(i)*8, r.next()%4096)
	}

	b.LiAddr(isa.S0, grid)
	b.Li(isa.S3, int32(moves))
	b.Li64(isa.S1, 0x2545f4914f6cdd1d)
	b.Li(isa.S2, 777)
	b.Li(isa.S4, 0) // accepted cost
	move := b.Here()
	// Two random cells a, b.
	b.Mul(isa.S2, isa.S2, isa.S1)
	b.Addi(isa.S2, isa.S2, 13)
	b.Srli(isa.T0, isa.S2, 12)
	b.Li(isa.T5, int32(gridCells-1))
	b.And(isa.T0, isa.T0, isa.T5)
	b.Srli(isa.T1, isa.S2, 36)
	b.And(isa.T1, isa.T1, isa.T5)
	b.Slli(isa.T0, isa.T0, 3)
	b.Add(isa.T0, isa.T0, isa.S0)
	b.Slli(isa.T1, isa.T1, 3)
	b.Add(isa.T1, isa.T1, isa.S0)
	b.Ld(isa.T2, isa.T0, 0) // cost a (random miss)
	b.Ld(isa.T3, isa.T1, 0) // cost b (random miss)
	// delta = a - b; accept if delta > 0 (swap values).
	reject := b.NewLabel()
	b.Sub(isa.T4, isa.T2, isa.T3)
	b.Li(isa.U0, 3072) // accept only large positive deltas (~12%% of moves)
	b.Bge(isa.U0, isa.T4, reject)
	b.St(isa.T3, isa.T0, 0)
	b.St(isa.T2, isa.T1, 0)
	b.Add(isa.S4, isa.S4, isa.T4)
	b.Bind(reject)
	b.Addi(isa.S3, isa.S3, -1)
	b.Bne(isa.S3, isa.Zero, move)
	b.Halt()
	return b.MustBuild()
}
