// AVX2+FMA distance kernels. Callers (kernels_amd64.go) guarantee:
//   - dotAVX2 / sqL2AVX2: n is a multiple of 8, n >= 8
//   - dotInt8AVX2:        n is a multiple of 16, n >= 16
//   - dotInt8RowsAVX2:    n is a multiple of 32, 32 <= n <= stride, and no
//                         row byte is -128
//   - dotInt8HeadsPassAVX2: nrows is a multiple of 8, 8 <= nrows <= 256, no
//                         head byte is -128, and pass holds nrows bytes
// and that AVX2+FMA were detected before any kernel is invoked.
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

// func dotInt8HeadsPassAVX2(dots *int32, pass *uint8, q, heads *int8, cosw, tailw, qerrw *float32, nrows int, tail, err, cut float32) int
// DotInt8HeadsPass over eight 32-byte rows per pass. The query head (Y14)
// and its absolute value (Y13) are loaded once. Each row's chunk goes
// through VPSIGNB/VPMADDUBSW/VPMADDWD as in dotInt8RowsAVX2, leaving eight
// int32 partial sums in Y0..Y7; six VPHADDDs fold them into two registers
// whose 128-bit lanes hold four rows' half-sums each, and two VPERM2I128s
// and a VPADDD line the eight totals up in row order, stored as the dots.
// The test is HeadCut.Below's expression in its operation order —
// float32(h)*cosw, Tail*tailw and Err*qerrw each rounded by its own
// VMULPS, then two VADDPS left to right, never an FMA — so the lanes round
// exactly as the Go test does, and VCMPPS LT_OQ (false on NaN) against the
// cut, then VMOVMSKPS, gives the rows below it. The complement's set bits
// are the survivors, written out lowest first as block offsets. Survivors
// are rare under a useful cut, so a pass with none takes one branch.
TEXT ·dotInt8HeadsPassAVX2(SB), NOSPLIT, $0-88
	MOVQ dots+0(FP), R8
	MOVQ pass+8(FP), R9
	MOVQ q+16(FP), SI
	MOVQ heads+24(FP), DI
	MOVQ cosw+32(FP), R10
	MOVQ tailw+40(FP), R11
	MOVQ qerrw+48(FP), R12
	MOVQ nrows+56(FP), CX
	VBROADCASTSS tail+64(FP), Y12
	VBROADCASTSS err+68(FP), Y11
	VBROADCASTSS cut+72(FP), Y10
	VMOVDQU (SI), Y14
	VPABSB Y14, Y13
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $15, Y15, Y15 // sixteen int16 ones
	XORQ BX, BX          // row offset of the pass
	XORQ R13, R13        // survivors written
heads8:
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7
	VPSIGNB Y14, Y0, Y0
	VPSIGNB Y14, Y1, Y1
	VPSIGNB Y14, Y2, Y2
	VPSIGNB Y14, Y3, Y3
	VPSIGNB Y14, Y4, Y4
	VPSIGNB Y14, Y5, Y5
	VPSIGNB Y14, Y6, Y6
	VPSIGNB Y14, Y7, Y7
	VPMADDUBSW Y0, Y13, Y0
	VPMADDUBSW Y1, Y13, Y1
	VPMADDUBSW Y2, Y13, Y2
	VPMADDUBSW Y3, Y13, Y3
	VPMADDUBSW Y4, Y13, Y4
	VPMADDUBSW Y5, Y13, Y5
	VPMADDUBSW Y6, Y13, Y6
	VPMADDUBSW Y7, Y13, Y7
	VPMADDWD Y15, Y0, Y0
	VPMADDWD Y15, Y1, Y1
	VPMADDWD Y15, Y2, Y2
	VPMADDWD Y15, Y3, Y3
	VPMADDWD Y15, Y4, Y4
	VPMADDWD Y15, Y5, Y5
	VPMADDWD Y15, Y6, Y6
	VPMADDWD Y15, Y7, Y7
	VPHADDD Y1, Y0, Y0 // rows 0,1: pairs of quarter-sums
	VPHADDD Y3, Y2, Y2
	VPHADDD Y5, Y4, Y4
	VPHADDD Y7, Y6, Y6
	VPHADDD Y2, Y0, Y0 // rows 0-3: low lane bytes 0-15, high lane bytes 16-31
	VPHADDD Y6, Y4, Y4 // rows 4-7 likewise
	VPERM2I128 $0x20, Y4, Y0, Y1
	VPERM2I128 $0x31, Y4, Y0, Y2
	VPADDD Y2, Y1, Y1 // rows 0-7 in lanes 0-7
	VMOVDQU Y1, (R8)(BX*4)
	VCVTDQ2PS Y1, Y1
	VMULPS (R10)(BX*4), Y1, Y1
	VMULPS (R11)(BX*4), Y12, Y2
	VMULPS (R12)(BX*4), Y11, Y3
	VADDPS Y2, Y1, Y1
	VADDPS Y3, Y1, Y1
	VCMPPS $0x11, Y10, Y1, Y1 // LT_OQ: sum < cut
	VMOVMSKPS Y1, AX
	XORL $0xff, AX            // the rows not below the cut
	JZ   heads_next
heads_emit:
	BSFL AX, DX
	ADDL BX, DX
	MOVB DX, (R9)(R13*1)
	INCQ R13
	LEAL -1(AX), DX
	ANDL DX, AX
	JNZ  heads_emit
heads_next:
	ADDQ $256, DI
	ADDQ $8, BX
	CMPQ BX, CX
	JL   heads8
	VZEROUPPER
	MOVQ R13, ret+80(FP)
	RET
