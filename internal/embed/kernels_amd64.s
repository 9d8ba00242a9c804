// AVX2+FMA distance kernels, and the AVX-512 VNNI heads kernel. Callers
// (kernels_amd64.go) guarantee:
//   - dotAVX2 / sqL2AVX2: n is a multiple of 8, n >= 8
//   - dotInt8AVX2:        n is a multiple of 16, n >= 16
//   - dotInt8RowsAVX2:    n is a multiple of 32, 32 <= n <= stride, and no
//                         row byte is -128
//   - dotInt8HeadsPassAVX2 / dotInt8HeadsPassVNNI: heads is a blocked
//                         heads plane, nrows is a multiple of 16,
//                         16 <= nrows <= 256, no head code is -128 (a
//                         stored byte of 0, which only the AVX2 kernel
//                         cannot take), and pass holds nrows bytes
// and that AVX2+FMA (for the VNNI kernel: AVX512F, AVX512BW, AVX512_VNNI
// and the ZMM state) were detected before any kernel is invoked.
// Four independent accumulators per kernel keep the FMA pipeline full;
// the remainder under one unrolled stride runs in a narrow loop.

#include "textflag.h"

// func cpuidAsm(leaf, sub uint32) (ax, bx, cx, dx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, ax+8(FP)
	MOVL BX, bx+12(FP)
	MOVL CX, cx+16(FP)
	MOVL DX, dx+20(FP)
	RET

// func xgetbvAsm() (ax, dx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, ax+0(FP)
	MOVL DX, dx+4(FP)
	RET

// func dotAVX2(a, b *float32, n int) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX
	CMPQ DX, $0
	JE   dot_tail
dot_loop32:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VMOVUPS (DI)(AX*4), Y8
	VMOVUPS 32(DI)(AX*4), Y9
	VMOVUPS 64(DI)(AX*4), Y10
	VMOVUPS 96(DI)(AX*4), Y11
	VFMADD231PS Y8, Y4, Y0
	VFMADD231PS Y9, Y5, Y1
	VFMADD231PS Y10, Y6, Y2
	VFMADD231PS Y11, Y7, Y3
	ADDQ $32, AX
	CMPQ AX, DX
	JL   dot_loop32
dot_tail:
	CMPQ AX, CX
	JGE  dot_reduce
dot_loop8:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS (DI)(AX*4), Y8
	VFMADD231PS Y8, Y4, Y0
	ADDQ $8, AX
	CMPQ AX, CX
	JL   dot_loop8
dot_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func sqL2AVX2(a, b *float32, n int) float32
TEXT ·sqL2AVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX
	CMPQ DX, $0
	JE   sq_tail
sq_loop32:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VSUBPS (DI)(AX*4), Y4, Y4
	VSUBPS 32(DI)(AX*4), Y5, Y5
	VSUBPS 64(DI)(AX*4), Y6, Y6
	VSUBPS 96(DI)(AX*4), Y7, Y7
	VFMADD231PS Y4, Y4, Y0
	VFMADD231PS Y5, Y5, Y1
	VFMADD231PS Y6, Y6, Y2
	VFMADD231PS Y7, Y7, Y3
	ADDQ $32, AX
	CMPQ AX, DX
	JL   sq_loop32
sq_tail:
	CMPQ AX, CX
	JGE  sq_reduce
sq_loop8:
	VMOVUPS (SI)(AX*4), Y4
	VSUBPS (DI)(AX*4), Y4, Y4
	VFMADD231PS Y4, Y4, Y0
	ADDQ $8, AX
	CMPQ AX, CX
	JL   sq_loop8
sq_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func dotInt8AVX2(a, b *int8, n int) int32
// Widens int8 to int16 (VPMOVSXBW), multiply-accumulates int16 pairs into
// int32 lanes (VPMADDWD): 127*127*2 per lane per step fits int16-pair
// products comfortably in int32.
TEXT ·dotInt8AVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX
	CMPQ DX, $0
	JE   i8_tail
i8_loop32:
	VPMOVSXBW (SI)(AX*1), Y2
	VPMOVSXBW 16(SI)(AX*1), Y3
	VPMOVSXBW (DI)(AX*1), Y4
	VPMOVSXBW 16(DI)(AX*1), Y5
	VPMADDWD Y4, Y2, Y2
	VPMADDWD Y5, Y3, Y3
	VPADDD Y2, Y0, Y0
	VPADDD Y3, Y1, Y1
	ADDQ $32, AX
	CMPQ AX, DX
	JL   i8_loop32
i8_tail:
	CMPQ AX, CX
	JGE  i8_reduce
i8_loop16:
	VPMOVSXBW (SI)(AX*1), Y2
	VPMOVSXBW (DI)(AX*1), Y4
	VPMADDWD Y4, Y2, Y2
	VPADDD Y2, Y0, Y0
	ADDQ $16, AX
	CMPQ AX, CX
	JL   i8_loop16
i8_reduce:
	VPADDD Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPHADDD X0, X0, X0
	VPHADDD X0, X0, X0
	VMOVD X0, AX
	VZEROUPPER
	MOVL AX, ret+24(FP)
	RET

// func dotInt8RowsAVX2(out *int32, q, rows *int8, n, stride, nrows int)
// out[r] = q[:n] · rows[r*stride : r*stride+n], four rows per pass so one
// load and one VPABSB of a 32-byte query chunk serve four rows. Per chunk
// and row: VPSIGNB moves the query's sign onto the row, VPMADDUBSW
// multiplies |q| (unsigned) by the signed row into int16 pairs — at most
// 2*128*127 = 32512, so it never saturates as long as no row byte is -128
// (the one value VPSIGNB cannot negate) — and VPMADDWD against ones widens
// the pairs into the row's int32 accumulator. Three VPHADDDs then reduce
// the four accumulators together into four adjacent int32 results. A scan
// of more codes than the cache holds runs at memory speed, so each row is
// prefetched 2 KB ahead (a prefetch past the last row cannot fault); the
// 16384x128 scan measured about a tenth faster with it than without.
TEXT ·dotInt8RowsAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), R8
	MOVQ q+8(FP), SI
	MOVQ rows+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ stride+32(FP), R9
	MOVQ nrows+40(FP), R10
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $15, Y15, Y15 // sixteen int16 ones
rows4:
	CMPQ R10, $4
	JL   rows1
	LEAQ (DI)(R9*1), R11
	LEAQ (DI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
rows4_chunk:
	VMOVDQU (SI)(AX*1), Y4
	VPABSB Y4, Y5
	PREFETCHT0 2048(DI)(AX*1)
	PREFETCHT0 2048(R11)(AX*1)
	PREFETCHT0 2048(R12)(AX*1)
	PREFETCHT0 2048(R13)(AX*1)
	VMOVDQU (DI)(AX*1), Y6
	VMOVDQU (R11)(AX*1), Y7
	VMOVDQU (R12)(AX*1), Y8
	VMOVDQU (R13)(AX*1), Y9
	VPSIGNB Y4, Y6, Y6
	VPSIGNB Y4, Y7, Y7
	VPSIGNB Y4, Y8, Y8
	VPSIGNB Y4, Y9, Y9
	VPMADDUBSW Y6, Y5, Y6
	VPMADDUBSW Y7, Y5, Y7
	VPMADDUBSW Y8, Y5, Y8
	VPMADDUBSW Y9, Y5, Y9
	VPMADDWD Y15, Y6, Y6
	VPMADDWD Y15, Y7, Y7
	VPMADDWD Y15, Y8, Y8
	VPMADDWD Y15, Y9, Y9
	VPADDD Y6, Y0, Y0
	VPADDD Y7, Y1, Y1
	VPADDD Y8, Y2, Y2
	VPADDD Y9, Y3, Y3
	ADDQ $32, AX
	CMPQ AX, CX
	JL   rows4_chunk
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VMOVDQU X0, (R8)
	ADDQ $16, R8
	LEAQ (DI)(R9*4), DI
	SUBQ $4, R10
	JMP  rows4
rows1:
	CMPQ R10, $0
	JLE  rows_done
	VPXOR Y0, Y0, Y0
	XORQ AX, AX
rows1_chunk:
	VMOVDQU (SI)(AX*1), Y4
	VPABSB Y4, Y5
	VMOVDQU (DI)(AX*1), Y6
	VPSIGNB Y4, Y6, Y6
	VPMADDUBSW Y6, Y5, Y6
	VPMADDWD Y15, Y6, Y6
	VPADDD Y6, Y0, Y0
	ADDQ $32, AX
	CMPQ AX, CX
	JL   rows1_chunk
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPHADDD X0, X0, X0
	VPHADDD X0, X0, X0
	VMOVD X0, AX
	MOVL AX, (R8)
	ADDQ $4, R8
	ADDQ R9, DI
	DECQ R10
	JMP  rows1
rows_done:
	VZEROUPPER
	RET

// The heads kernels. Both read the blocked heads plane (embed.SetHead):
// per block of sixteen rows, eight 64-byte lines, line k holding 4-byte
// group k of every row, each byte the row's code plus 128. Both store a
// block's sixteen dots and then apply the head test to them in
// HeadCut.Below's operation order — float32(h)*cosw, Tail*tailw and
// Err*qerrw each rounded by its own VMULPS, then two VADDPS left to right,
// never an FMA — so the lanes round exactly as the Go test does, and
// VCMPPS LT_OQ (false on NaN) against the cut gives the rows below it. The
// complement's set bits are the survivors, written out lowest first as
// row offsets. Survivors are rare under a useful cut, so a block with none
// takes one branch.

// func dotInt8HeadsPassAVX2(dots *int32, pass *uint8, q *int8, heads *uint8, cosw, tailw, qerrw *float32, nrows int, tail, err, cut float32) int
// Query group k is broadcast to every dword once per call: its absolute
// value stays in Yk (Y0..Y7) and its signs in a 256-byte table on the
// stack. Per block and group, the two 32-byte halves of line k (rows 0-7
// and 8-15) get their bias back (VPXOR 0x80), take the query's sign
// (VPSIGNB), are multiplied by |q| into int16 pairs (VPMADDUBSW, at most
// 2*128*127, so never saturating while no code is -128) and widened into
// each row's dword (VPMADDWD against ones), which VPADDD adds to the
// half's accumulator, Y12 or Y13: the dots come out in row order, with no
// horizontal reduction.
// AVX2_QUERY(g, absq) broadcasts the query group at byte g to every dword,
// stores it at 8*g(SP) and leaves its absolute value in absq.
#define AVX2_QUERY(g, absq) \
	VPBROADCASTD g(SI), absq; \
	VMOVDQU absq, (8*g)(SP); \
	VPABSB absq, absq

// AVX2_GROUP(g, absq) adds the products of the block's line g/4 (at
// 16*g(DI): rows 0-7, then 8-15) and the query group at byte g to each
// row's dword in Y12 (rows 0-7) and Y13 (rows 8-15).
#define AVX2_GROUP(g, absq) \
	VPXOR (16*g)(DI), Y14, Y8; \
	VPXOR (16*g+32)(DI), Y14, Y9; \
	VPSIGNB (8*g)(SP), Y8, Y8; \
	VPSIGNB (8*g)(SP), Y9, Y9; \
	VPMADDUBSW Y8, absq, Y8; \
	VPMADDUBSW Y9, absq, Y9; \
	VPMADDWD Y15, Y8, Y8; \
	VPMADDWD Y15, Y9, Y9; \
	VPADDD Y8, Y12, Y12; \
	VPADDD Y9, Y13, Y13

TEXT ·dotInt8HeadsPassAVX2(SB), NOSPLIT, $256-88
	MOVQ dots+0(FP), R8
	MOVQ pass+8(FP), R9
	MOVQ q+16(FP), SI
	MOVQ heads+24(FP), DI
	MOVQ cosw+32(FP), R10
	MOVQ tailw+40(FP), R11
	MOVQ qerrw+48(FP), R12
	MOVQ nrows+56(FP), CX
	AVX2_QUERY(0, Y0)
	AVX2_QUERY(4, Y1)
	AVX2_QUERY(8, Y2)
	AVX2_QUERY(12, Y3)
	AVX2_QUERY(16, Y4)
	AVX2_QUERY(20, Y5)
	AVX2_QUERY(24, Y6)
	AVX2_QUERY(28, Y7)
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $15, Y15, Y15 // sixteen int16 ones
	MOVL $0x80808080, AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14 // the bias, 0x80 in every byte
	XORQ BX, BX           // row offset of the block
	XORQ R13, R13         // survivors written
avx2_block:
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	AVX2_GROUP(0, Y0)
	AVX2_GROUP(4, Y1)
	AVX2_GROUP(8, Y2)
	AVX2_GROUP(12, Y3)
	AVX2_GROUP(16, Y4)
	AVX2_GROUP(20, Y5)
	AVX2_GROUP(24, Y6)
	AVX2_GROUP(28, Y7)
	VMOVDQU Y12, (R8)(BX*4)
	VMOVDQU Y13, 32(R8)(BX*4)
	VBROADCASTSS tail+64(FP), Y10
	VBROADCASTSS err+68(FP), Y11
	VCVTDQ2PS Y12, Y12
	VCVTDQ2PS Y13, Y13
	VMULPS (R10)(BX*4), Y12, Y12
	VMULPS 32(R10)(BX*4), Y13, Y13
	VMULPS (R11)(BX*4), Y10, Y8
	VMULPS 32(R11)(BX*4), Y10, Y9
	VADDPS Y8, Y12, Y12
	VADDPS Y9, Y13, Y13
	VMULPS (R12)(BX*4), Y11, Y8
	VMULPS 32(R12)(BX*4), Y11, Y9
	VADDPS Y8, Y12, Y12
	VADDPS Y9, Y13, Y13
	VBROADCASTSS cut+72(FP), Y10
	VCMPPS $0x11, Y10, Y12, Y12 // LT_OQ: sum < cut
	VCMPPS $0x11, Y10, Y13, Y13
	VMOVMSKPS Y12, AX
	VMOVMSKPS Y13, DX
	SHLL $8, DX
	ORL  DX, AX
	XORL $0xffff, AX            // the rows not below the cut
	JZ   avx2_next
avx2_emit:
	BSFL AX, DX
	ADDL BX, DX
	MOVB DX, (R9)(R13*1)
	INCQ R13
	LEAL -1(AX), DX
	ANDL DX, AX
	JNZ  avx2_emit
avx2_next:
	ADDQ $512, DI
	ADDQ $16, BX
	CMPQ BX, CX
	JL   avx2_block
	VZEROUPPER
	MOVQ R13, ret+80(FP)
	RET

// func dotInt8HeadsPassVNNI(dots *int32, pass *uint8, q *int8, heads *uint8, cosw, tailw, qerrw *float32, nrows int, tail, err, cut float32) int
// Query group k is broadcast to every dword of Z16+k once per call. Per
// block, VPDPBUSD multiplies line k's biased bytes (unsigned) by the
// query group (signed) and adds each row's four products to its dword, so
// eight VPDPBUSDs into two accumulators score sixteen rows. The sums are
// exact in int32 (no saturation), and the bias comes off by starting one
// accumulator at -128·Σq, which the same instruction computes up front
// from 0x80 bytes.
TEXT ·dotInt8HeadsPassVNNI(SB), NOSPLIT, $0-88
	MOVQ dots+0(FP), R8
	MOVQ pass+8(FP), R9
	MOVQ q+16(FP), SI
	MOVQ heads+24(FP), DI
	MOVQ cosw+32(FP), R10
	MOVQ tailw+40(FP), R11
	MOVQ qerrw+48(FP), R12
	MOVQ nrows+56(FP), CX
	VBROADCASTSS tail+64(FP), Z12
	VBROADCASTSS err+68(FP), Z11
	VBROADCASTSS cut+72(FP), Z10
	VPBROADCASTD 0(SI), Z16
	VPBROADCASTD 4(SI), Z17
	VPBROADCASTD 8(SI), Z18
	VPBROADCASTD 12(SI), Z19
	VPBROADCASTD 16(SI), Z20
	VPBROADCASTD 20(SI), Z21
	VPBROADCASTD 24(SI), Z22
	VPBROADCASTD 28(SI), Z23
	MOVL $0x80808080, AX
	VPBROADCASTD AX, Z8
	VPXORD Z9, Z9, Z9
	VPDPBUSD Z16, Z8, Z9
	VPDPBUSD Z17, Z8, Z9
	VPDPBUSD Z18, Z8, Z9
	VPDPBUSD Z19, Z8, Z9
	VPDPBUSD Z20, Z8, Z9
	VPDPBUSD Z21, Z8, Z9
	VPDPBUSD Z22, Z8, Z9
	VPDPBUSD Z23, Z8, Z9
	VPXORD Z14, Z14, Z14
	VPSUBD Z9, Z14, Z14 // -128·Σq in every dword
	XORQ BX, BX         // row offset of the block
	XORQ R13, R13       // survivors written
vnni_block:
	VMOVDQA32 Z14, Z0
	VPXORD Z13, Z13, Z13
	VMOVDQU32 0(DI), Z1
	VMOVDQU32 64(DI), Z2
	VMOVDQU32 128(DI), Z3
	VMOVDQU32 192(DI), Z4
	VMOVDQU32 256(DI), Z5
	VMOVDQU32 320(DI), Z6
	VMOVDQU32 384(DI), Z7
	VMOVDQU32 448(DI), Z8
	VPDPBUSD Z16, Z1, Z0
	VPDPBUSD Z17, Z2, Z13
	VPDPBUSD Z18, Z3, Z0
	VPDPBUSD Z19, Z4, Z13
	VPDPBUSD Z20, Z5, Z0
	VPDPBUSD Z21, Z6, Z13
	VPDPBUSD Z22, Z7, Z0
	VPDPBUSD Z23, Z8, Z13
	VPADDD Z13, Z0, Z0
	VMOVDQU32 Z0, (R8)(BX*4)
	VCVTDQ2PS Z0, Z0
	VMULPS (R10)(BX*4), Z0, Z0
	VMULPS (R11)(BX*4), Z12, Z1
	VMULPS (R12)(BX*4), Z11, Z2
	VADDPS Z1, Z0, Z0
	VADDPS Z2, Z0, Z0
	VCMPPS $0x11, Z10, Z0, K1 // LT_OQ: sum < cut
	KMOVW K1, AX
	XORL $0xffff, AX          // the rows not below the cut
	JZ   vnni_next
vnni_emit:
	BSFL AX, DX
	ADDL BX, DX
	MOVB DX, (R9)(R13*1)
	INCQ R13
	LEAL -1(AX), DX
	ANDL DX, AX
	JNZ  vnni_emit
vnni_next:
	ADDQ $512, DI
	ADDQ $16, BX
	CMPQ BX, CX
	JL   vnni_block
	VZEROUPPER
	MOVQ R13, ret+80(FP)
	RET
