//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels. Bit-identity contract: only VMULPD/VADDPD (one rounding
// per operation, no FMA) on independent lanes, accumulator always the
// first source of each add — the same operation sequence per element as
// the scalar Go kernels. See simd_amd64.go for the lane argument.

// boolTab maps a 4-bit VMOVMSKPD result to 4 packed bool bytes
// (byte i = bit i), so the ReLU mask store is one 32-bit move.
DATA boolTab<>+0x00(SB)/4, $0x00000000
DATA boolTab<>+0x04(SB)/4, $0x00000001
DATA boolTab<>+0x08(SB)/4, $0x00000100
DATA boolTab<>+0x0c(SB)/4, $0x00000101
DATA boolTab<>+0x10(SB)/4, $0x00010000
DATA boolTab<>+0x14(SB)/4, $0x00010001
DATA boolTab<>+0x18(SB)/4, $0x00010100
DATA boolTab<>+0x1c(SB)/4, $0x00010101
DATA boolTab<>+0x20(SB)/4, $0x01000000
DATA boolTab<>+0x24(SB)/4, $0x01000001
DATA boolTab<>+0x28(SB)/4, $0x01000100
DATA boolTab<>+0x2c(SB)/4, $0x01000101
DATA boolTab<>+0x30(SB)/4, $0x01010000
DATA boolTab<>+0x34(SB)/4, $0x01010001
DATA boolTab<>+0x38(SB)/4, $0x01010100
DATA boolTab<>+0x3c(SB)/4, $0x01010101
GLOBL boolTab<>(SB), RODATA|NOPTR, $64

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	SHRL $27, R8
	ANDL $1, R8 // OSXSAVE
	TESTL R8, R8
	JZ   no
	MOVL CX, R8
	SHRL $28, R8
	ANDL $1, R8 // AVX
	TESTL R8, R8
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX // AVX2
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX(dst, x []float64, a float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

loop8:
	CMPQ AX, BX
	JGE  tail4
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

tail4:
	MOVQ CX, BX
	ANDQ $-4, BX

tail4loop:
	CMPQ AX, BX
	JGE  tail1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tail4loop

tail1:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  tail1

done:
	VZEROUPPER
	RET

// func axpy2AVX(dst, x0, x1 []float64, a0, a1 float64)
TEXT ·axpy2AVX(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x0_base+24(FP), SI
	MOVQ x1_base+48(FP), DX
	VBROADCASTSD a0+72(FP), Y0
	VBROADCASTSD a1+80(FP), Y1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

loop8:
	CMPQ AX, BX
	JGE  tail4
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD (DX)(AX*8), Y4
	VMOVUPD 32(DX)(AX*8), Y5
	VMULPD  Y1, Y4, Y4
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

tail4:
	MOVQ CX, BX
	ANDQ $-4, BX

tail4loop:
	CMPQ AX, BX
	JGE  tail1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD (DX)(AX*8), Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tail4loop

tail1:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD X4, X2, X2
	VMOVSD (DX)(AX*8), X4
	VMULSD X1, X4, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  tail1

done:
	VZEROUPPER
	RET

// func dotAVX(a, b []float64) float64
TEXT ·dotAVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	VXORPD Y0, Y0, Y0 // lanes = partial sums s0..s3
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

loop4:
	CMPQ AX, BX
	JGE  lanes
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DX)(AX*8), Y2
	VMULPD  Y2, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  loop4

lanes:
	// X0 = {s0, s1}, X1 = {s2, s3}; scalar tail folds into s0 (lane 0).
	VEXTRACTF128 $1, Y0, X1

tail:
	CMPQ AX, CX
	JGE  collapse
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DX)(AX*8), X3
	VMULSD X3, X2, X2
	VADDSD X2, X0, X0
	INCQ AX
	JMP  tail

collapse:
	// ((s0+s1)+s2)+s3, the scalar dot4 collapse order.
	VUNPCKHPD X0, X0, X2 // X2 low = s1
	VADDSD    X2, X0, X0
	VUNPCKHPD X1, X1, X3 // X3 low = s3
	VADDSD    X1, X0, X0 // += s2
	VADDSD    X3, X0, X0 // += s3
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func reluFwdAVX(out, x []float64, mask []bool)
TEXT ·reluFwdAVX(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ mask_base+48(FP), R8
	MOVQ $boolTab<>(SB), R11
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

loop4:
	CMPQ AX, BX
	JGE  tail
	VMOVUPD (SI)(AX*8), Y1
	VCMPPD  $0x1e, Y0, Y1, Y2 // GT_OQ: x > 0, NaN -> false
	VANDPD  Y1, Y2, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VMOVMSKPD Y2, R9
	MOVL    (R11)(R9*4), R10
	MOVL    R10, (R8)(AX*1)
	ADDQ $4, AX
	JMP  loop4

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD   (SI)(AX*8), X1
	VUCOMISD X0, X1
	JA   pos
	MOVQ $0, (DI)(AX*8)
	MOVB $0, (R8)(AX*1)
	INCQ AX
	JMP  tail

pos:
	VMOVSD X1, (DI)(AX*8)
	MOVB   $1, (R8)(AX*1)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func reluBwdAVX(dx, g []float64, mask []bool)
TEXT ·reluBwdAVX(SB), NOSPLIT, $0-72
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ mask_base+48(FP), R8
	VPXOR Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

loop4:
	CMPQ AX, BX
	JGE  tail
	VPMOVZXBQ (R8)(AX*1), Y2
	VPCMPEQQ  Y0, Y2, Y2      // lanes where mask == 0
	VMOVUPD   (SI)(AX*8), Y1
	VANDNPD   Y1, Y2, Y3      // g where mask != 0, else 0
	VMOVUPD   Y3, (DI)(AX*8)
	ADDQ $4, AX
	JMP  loop4

tail:
	CMPQ AX, CX
	JGE  done
	MOVBLZX (R8)(AX*1), R9
	TESTL   R9, R9
	JZ   zero
	MOVQ (SI)(AX*8), R10
	MOVQ R10, (DI)(AX*8)
	INCQ AX
	JMP  tail

zero:
	MOVQ $0, (DI)(AX*8)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func dotRowsAVX(dst, aseg, b []float64, stride int)
// For each j: dst[j] += dot4(aseg, b[j*stride : j*stride+len(aseg)]) —
// one call per destination row instead of one per dot, with the same
// 4-lane partial structure and collapse order as dotAVX. Rows are
// processed in independent pairs (two accumulator chains hide the
// VADDPD latency and share each aseg load); each j's own chain is
// unchanged.
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX   // n
	MOVQ aseg_base+24(FP), SI
	MOVQ aseg_len+32(FP), R9 // seg
	MOVQ b_base+48(FP), DX
	MOVQ stride+72(FP), R10
	SHLQ $3, R10             // stride in bytes
	MOVQ R9, R12
	ANDQ $-4, R12
	XORQ R13, R13            // j

pairloop:
	LEAQ 1(R13), AX
	CMPQ AX, CX
	JGE  single              // fewer than two rows left
	MOVQ DX, BX
	LEAQ (DX)(R10*1), R14
	VXORPD Y0, Y0, Y0
	VXORPD Y5, Y5, Y5
	XORQ AX, AX

pdot:
	CMPQ AX, R12
	JGE  ptail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (BX)(AX*8), Y2
	VMOVUPD (R14)(AX*8), Y3
	VMULPD  Y2, Y1, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  Y3, Y1, Y3
	VADDPD  Y3, Y5, Y5
	ADDQ $4, AX
	JMP  pdot

ptail:
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y5, X6

ptail1:
	CMPQ AX, R9
	JGE  pcollapse
	VMOVSD (SI)(AX*8), X2
	VMOVSD (BX)(AX*8), X3
	VMULSD X3, X2, X3
	VADDSD X3, X0, X0
	VMOVSD (R14)(AX*8), X4
	VMULSD X4, X2, X4
	VADDSD X4, X5, X5
	INCQ AX
	JMP  ptail1

pcollapse:
	VUNPCKHPD X0, X0, X2
	VADDSD    X2, X0, X0
	VUNPCKHPD X1, X1, X3
	VADDSD    X1, X0, X0
	VADDSD    X3, X0, X0
	VMOVSD (DI)(R13*8), X4
	VADDSD X0, X4, X4
	VMOVSD X4, (DI)(R13*8)
	VUNPCKHPD X5, X5, X2
	VADDSD    X2, X5, X5
	VUNPCKHPD X6, X6, X3
	VADDSD    X6, X5, X5
	VADDSD    X3, X5, X5
	VMOVSD 8(DI)(R13*8), X4
	VADDSD X5, X4, X4
	VMOVSD X4, 8(DI)(R13*8)
	LEAQ (DX)(R10*2), DX
	ADDQ $2, R13
	JMP  pairloop

single:
	CMPQ R13, CX
	JGE  done
	MOVQ DX, BX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

dotloop:
	CMPQ AX, R12
	JGE  dtail
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (BX)(AX*8), Y2
	VMULPD  Y2, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  dotloop

dtail:
	VEXTRACTF128 $1, Y0, X1

dtail1:
	CMPQ AX, R9
	JGE  collapse
	VMOVSD (SI)(AX*8), X2
	VMOVSD (BX)(AX*8), X3
	VMULSD X3, X2, X2
	VADDSD X2, X0, X0
	INCQ AX
	JMP  dtail1

collapse:
	VUNPCKHPD X0, X0, X2
	VADDSD    X2, X0, X0
	VUNPCKHPD X1, X1, X3
	VADDSD    X1, X0, X0
	VADDSD    X3, X0, X0
	VMOVSD (DI)(R13*8), X4
	VADDSD X0, X4, X4
	VMOVSD X4, (DI)(R13*8)
	ADDQ R10, DX
	INCQ R13
	JMP  single

done:
	VZEROUPPER
	RET

// poolLaneIdx seeds the 2x2 maxpool index vector: the input column index
// of each lane's first candidate within its 4-element load; the kernel
// adds the second load's distance to lanes 2 and 3.
DATA poolLaneIdx<>+0x00(SB)/8, $0
DATA poolLaneIdx<>+0x08(SB)/8, $2
DATA poolLaneIdx<>+0x10(SB)/8, $0
DATA poolLaneIdx<>+0x18(SB)/8, $2
GLOBL poolLaneIdx<>(SB), RODATA|NOPTR, $32

// func maxPool2AVX(dst *float64, am *int, src *float64, w, rows, steps, half int, start float64)
// Non-overlapping 2x2 stride-2 max pooling with argmax, 4 output elements
// per step. A step's top-row candidates come from the 4-element loads at
// +0 and +half bytes, its bottom-row candidates from the same two loads w
// elements on; half = 32 walks one row pair eight columns at a time,
// half = 64 with w = 4 takes two stacked 4-wide row pairs, 16 contiguous
// doubles, as one step. Each lane replays the scalar loop exactly: best
// starts at start, index at -1, and the four window candidates are tested
// in (dy, dx) ascending order with a strict > compare (GT_OQ, so NaN never
// wins) and mask blends.
TEXT ·maxPool2AVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ am+8(FP), R8
	MOVQ src+16(FP), BX      // row0
	MOVQ w+24(FP), R10
	MOVQ rows+32(FP), R9
	MOVQ half+48(FP), R14
	XORQ R12, R12            // flat index of the row pair's first element

	VBROADCASTSD start+56(FP), Y15
	MOVQ R14, AX
	SHRQ $3, AX              // the second load's distance in elements
	VMOVQ AX, X5
	VPBROADCASTQ X5, Y5
	VPXOR Y6, Y6, Y6
	VPBLENDD $0xf0, Y5, Y6, Y5
	VMOVDQU poolLaneIdx<>+0(SB), Y14
	VPADDQ Y5, Y14, Y14      // lane seeds {0, 2, half/8, half/8+2}
	MOVQ R14, AX
	SHRQ $2, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13    // per-step index advance
	VMOVQ R10, X12
	VPBROADCASTQ X12, Y12    // W
	MOVQ $1, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11    // 1
	VPCMPEQQ Y10, Y10, Y10   // -1
	SHLQ $3, R10             // W in bytes

rowloop:
	TESTQ R9, R9
	JZ   done
	LEAQ (BX)(R10*1), R11    // row1
	VMOVQ R12, X4
	VPBROADCASTQ X4, Y4
	VPADDQ Y14, Y4, Y4       // lane candidate-(0,0) indices
	XORQ DX, DX              // byte offset of the step's first load
	MOVQ steps+40(FP), R13

iter:
	TESTQ R13, R13
	JZ   nextrow
	LEAQ (DX)(R14*1), AX     // byte offset of its second load
	// Deinterleave each row's 8 elements into even/odd columns.
	VMOVUPD (BX)(DX*1), Y0
	VMOVUPD (BX)(AX*1), Y1
	VSHUFPD $0x0, Y1, Y0, Y2
	VPERMPD $0xd8, Y2, Y2    // candidates (0,0)
	VSHUFPD $0xf, Y1, Y0, Y3
	VPERMPD $0xd8, Y3, Y3    // candidates (0,1)
	VMOVUPD (R11)(DX*1), Y0
	VMOVUPD (R11)(AX*1), Y1
	VSHUFPD $0x0, Y1, Y0, Y6
	VPERMPD $0xd8, Y6, Y6    // candidates (1,0)
	VSHUFPD $0xf, Y1, Y0, Y7
	VPERMPD $0xd8, Y7, Y7    // candidates (1,1)

	VMOVUPD Y15, Y8          // best = start
	VMOVUPD Y10, Y9          // bestIdx = -1

	VCMPPD $0x1e, Y8, Y2, Y0
	VBLENDVPD Y0, Y2, Y8, Y8
	VBLENDVPD Y0, Y4, Y9, Y9

	VPADDQ Y11, Y4, Y1
	VCMPPD $0x1e, Y8, Y3, Y0
	VBLENDVPD Y0, Y3, Y8, Y8
	VBLENDVPD Y0, Y1, Y9, Y9

	VPADDQ Y12, Y4, Y1
	VCMPPD $0x1e, Y8, Y6, Y0
	VBLENDVPD Y0, Y6, Y8, Y8
	VBLENDVPD Y0, Y1, Y9, Y9

	VPADDQ Y12, Y4, Y1
	VPADDQ Y11, Y1, Y1
	VCMPPD $0x1e, Y8, Y7, Y0
	VBLENDVPD Y0, Y7, Y8, Y8
	VBLENDVPD Y0, Y1, Y9, Y9

	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (R8)
	VPADDQ Y13, Y4, Y4
	LEAQ (DX)(R14*2), DX
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ R13
	JMP  iter

nextrow:
	LEAQ (BX)(R10*2), BX
	MOVQ w+24(FP), AX
	LEAQ (R12)(AX*2), R12
	DECQ R9
	JMP  rowloop

done:
	VZEROUPPER
	RET

// func axpy4AVX(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)
// dst[i] += a0*x0[i], then += a1*x1[i], += a2*x2[i], += a3*x3[i] — four
// reduction steps per destination pass, adds in ascending order per
// element exactly like four successive scalar axpy rows.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x0_base+24(FP), SI
	MOVQ x1_base+48(FP), DX
	MOVQ x2_base+72(FP), R11
	MOVQ x3_base+96(FP), R14
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y6
	VBROADCASTSD a3+144(FP), Y7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

loop8:
	CMPQ AX, BX
	JGE  tail4
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD (DX)(AX*8), Y4
	VMOVUPD 32(DX)(AX*8), Y5
	VMULPD  Y1, Y4, Y4
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD (R11)(AX*8), Y4
	VMOVUPD 32(R11)(AX*8), Y5
	VMULPD  Y6, Y4, Y4
	VMULPD  Y6, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD (R14)(AX*8), Y4
	VMOVUPD 32(R14)(AX*8), Y5
	VMULPD  Y7, Y4, Y4
	VMULPD  Y7, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

tail4:
	MOVQ CX, BX
	ANDQ $-4, BX

tail4loop:
	CMPQ AX, BX
	JGE  tail1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD (DX)(AX*8), Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD (R11)(AX*8), Y4
	VMULPD  Y6, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD (R14)(AX*8), Y4
	VMULPD  Y7, Y4, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tail4loop

tail1:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X2
	VMOVSD (SI)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD X4, X2, X2
	VMOVSD (DX)(AX*8), X4
	VMULSD X1, X4, X4
	VADDSD X4, X2, X2
	VMOVSD (R11)(AX*8), X4
	VMULSD X6, X4, X4
	VADDSD X4, X2, X2
	VMOVSD (R14)(AX*8), X4
	VMULSD X7, X4, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  tail1

done:
	VZEROUPPER
	RET

// func dotTileAVX(acc *DotTileAcc, a *[2][]float64, b *[4][]float64, c0, n int)
// A 2×4 tile of dot products advanced over the span [c0, c0+n), n%4 == 0:
// Y0..Y3 hold the four lane partials of cells (0,0)..(0,3), Y4..Y7 those
// of (1,0)..(1,3). Each step is one VMULPD and one VADDPD per cell with
// the accumulator as first source — per lane the scalar s += x*y — so the
// eight chains are independent and each is the chain dotTileGo runs.
TEXT ·dotTileAVX(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ c0+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ 0(AX), SI   // a[0] base
	MOVQ 24(AX), R8  // a[1] base
	MOVQ 0(BX), R9   // b[0] base
	MOVQ 24(BX), R10 // b[1] base
	MOVQ 48(BX), R11 // b[2] base
	MOVQ 72(BX), R12 // b[3] base
	LEAQ (SI)(DX*8), SI
	LEAQ (R8)(DX*8), R8
	LEAQ (R9)(DX*8), R9
	LEAQ (R10)(DX*8), R10
	LEAQ (R11)(DX*8), R11
	LEAQ (R12)(DX*8), R12
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ AX, AX

loop4:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (R8)(AX*8), Y9
	VMOVUPD (R9)(AX*8), Y10
	VMULPD  Y10, Y8, Y11
	VMULPD  Y10, Y9, Y12
	VADDPD  Y11, Y0, Y0
	VADDPD  Y12, Y4, Y4
	VMOVUPD (R10)(AX*8), Y13
	VMULPD  Y13, Y8, Y14
	VMULPD  Y13, Y9, Y15
	VADDPD  Y14, Y1, Y1
	VADDPD  Y15, Y5, Y5
	VMOVUPD (R11)(AX*8), Y10
	VMULPD  Y10, Y8, Y11
	VMULPD  Y10, Y9, Y12
	VADDPD  Y11, Y2, Y2
	VADDPD  Y12, Y6, Y6
	VMOVUPD (R12)(AX*8), Y13
	VMULPD  Y13, Y8, Y14
	VMULPD  Y13, Y9, Y15
	VADDPD  Y14, Y3, Y3
	VADDPD  Y15, Y7, Y7
	ADDQ $4, AX
	JMP  loop4

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// TRANSPOSE4 turns four ymm rows a..d of a 4×4 block into its four
// columns o0..o3 (o_j = {a_j, b_j, c_j, d_j}); t0..t3 are scratch. Pure
// data movement, no arithmetic.
#define TRANSPOSE4(a, b, c, d, t0, t1, t2, t3, o0, o1, o2, o3) \
	VUNPCKLPD  b, a, t0         \
	VUNPCKHPD  b, a, t1         \
	VUNPCKLPD  d, c, t2         \
	VUNPCKHPD  d, c, t3         \
	VPERM2F128 $0x20, t2, t0, o0 \
	VPERM2F128 $0x20, t3, t1, o1 \
	VPERM2F128 $0x31, t2, t0, o2 \
	VPERM2F128 $0x31, t3, t1, o3

// func transposeAVX(dst, src *float64, rows, cols, srcStride, dstStride int)
// dst[c*dstStride+r] = src[r*srcStride+c] over 4×4 blocks. A block that
// would run past the last row or column is moved back to end on it, so
// ragged edges rewrite a few elements with the same values; rows and cols
// must be ≥ 4.
TEXT ·transposeAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ srcStride+32(FP), R10
	MOVQ dstStride+40(FP), R11
	SHLQ $3, R10             // strides in bytes
	SHLQ $3, R11
	LEAQ (R10)(R10*2), R12   // 3 source rows
	LEAQ (R11)(R11*2), R13   // 3 destination rows
	XORQ AX, AX              // r0

trow:
	MOVQ R8, BX
	SUBQ $4, BX
	CMPQ AX, BX
	CMOVQGT BX, AX           // r0 = min(r0, rows-4)
	MOVQ AX, CX
	IMULQ R10, CX
	ADDQ SI, CX              // &src[r0][0]
	LEAQ (DI)(AX*8), DX      // &dst[0][r0]
	XORQ BX, BX              // c0

tcol:
	MOVQ R9, R14
	SUBQ $4, R14
	CMPQ BX, R14
	CMOVQGT R14, BX          // c0 = min(c0, cols-4)
	LEAQ (CX)(BX*8), R14
	VMOVUPD (R14), Y0
	VMOVUPD (R14)(R10*1), Y1
	VMOVUPD (R14)(R10*2), Y2
	VMOVUPD (R14)(R12*1), Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	MOVQ BX, R14
	IMULQ R11, R14
	ADDQ DX, R14             // &dst[c0][r0]
	VMOVUPD Y8, (R14)
	VMOVUPD Y9, (R14)(R11*1)
	VMOVUPD Y10, (R14)(R11*2)
	VMOVUPD Y11, (R14)(R13*1)
	ADDQ $4, BX
	CMPQ BX, R9
	JLT  tcol
	ADDQ $4, AX
	CMPQ AX, R8
	JLT  trow
	VZEROUPPER
	RET

// CONVFWDROW advances one tile row: the position's activation (already
// broadcast in v) times the tap's eight weights Y8/Y9, then the add with
// the accumulator as first source — per lane the scalar s += v*w.
#define CONVFWDROW(v, lo, hi) \
	VMULPD Y8, v, Y14   \
	VMULPD Y9, v, Y15   \
	VADDPD Y14, lo, lo  \
	VADDPD Y15, hi, hi

// CONVFWDSTORE adds channel i's bias to its four positions (the chain's
// last add) and stores them; R10 walks the channel planes.
#define CONVFWDSTORE(i, v) \
	VBROADCASTSD (8*i)(R11), Y12 \
	VADDPD Y12, v, v             \
	VMOVUPD v, (R10)             \
	ADDQ R9, R10

// func convFwdAVX(out, in, wt, bias *float64, tapOff, posBase *int, taps, spatial, wtStride, nc int)
// One padded sample into one block of nc ≤ 8 output channels. Per tile of
// four positions: Y0/Y1, Y2/Y3, Y4/Y5, Y6/Y7 hold channels 0-3/4-7 of
// positions 0..3, every lane a chain over taps ascending from +0 with one
// VMULPD and one VADDPD per tap. The tile is then transposed so each
// channel's four positions are contiguous, as the sample-major output
// wants them. A tile that would run past the last position is moved back
// to end on it (spatial ≥ 4), recomputing identical bits.
TEXT ·convFwdAVX(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ posBase+40(FP), R8
	MOVQ wtStride+64(FP), R14
	SHLQ $3, R14             // weight row in bytes
	XORQ BX, BX              // pos0

ftile:
	MOVQ spatial+56(FP), AX
	SUBQ $4, AX
	CMPQ BX, AX
	CMOVQGT AX, BX           // pos0 = min(pos0, spatial-4)
	MOVQ (R8)(BX*8), R10
	MOVQ 8(R8)(BX*8), R11
	MOVQ 16(R8)(BX*8), R12
	MOVQ 24(R8)(BX*8), R13
	LEAQ (SI)(R10*8), R10    // window origins of the four positions
	LEAQ (SI)(R11*8), R11
	LEAQ (SI)(R12*8), R12
	LEAQ (SI)(R13*8), R13
	MOVQ tapOff+32(FP), R9
	MOVQ taps+48(FP), CX
	MOVQ wt+16(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

ftap:
	MOVQ (R9), AX
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VBROADCASTSD (R12)(AX*8), Y12
	VBROADCASTSD (R13)(AX*8), Y13
	CONVFWDROW(Y10, Y0, Y1)
	CONVFWDROW(Y11, Y2, Y3)
	CONVFWDROW(Y12, Y4, Y5)
	CONVFWDROW(Y13, Y6, Y7)
	ADDQ $8, R9
	ADDQ R14, DX
	DECQ CX
	JNZ  ftap

	MOVQ spatial+56(FP), R9
	SHLQ $3, R9              // channel plane in bytes
	LEAQ (DI)(BX*8), R10     // &out[channel 0][pos0]
	MOVQ bias+24(FP), R11
	MOVQ nc+72(FP), R12
	TRANSPOSE4(Y0, Y2, Y4, Y6, Y8, Y9, Y10, Y11, Y0, Y2, Y4, Y6)
	CONVFWDSTORE(0, Y0)
	CMPQ R12, $2
	JLT  fnext
	CONVFWDSTORE(1, Y2)
	CMPQ R12, $3
	JLT  fnext
	CONVFWDSTORE(2, Y4)
	CMPQ R12, $4
	JLT  fnext
	CONVFWDSTORE(3, Y6)
	CMPQ R12, $5
	JLT  fnext
	TRANSPOSE4(Y1, Y3, Y5, Y7, Y8, Y9, Y10, Y11, Y1, Y3, Y5, Y7)
	CONVFWDSTORE(4, Y1)
	CMPQ R12, $6
	JLT  fnext
	CONVFWDSTORE(5, Y3)
	CMPQ R12, $7
	JLT  fnext
	CONVFWDSTORE(6, Y5)
	CMPQ R12, $8
	JLT  fnext
	CONVFWDSTORE(7, Y7)

fnext:
	ADDQ $4, BX
	CMPQ BX, spatial+56(FP)
	JLT  ftile
	VZEROUPPER
	RET

// CONVGRADPOS folds one position into its class accumulators lo/hi:
// output gradient (first source, as in the dot kernel) times the
// activation the tap sees there. BX walks dyt's rows; j picks the
// position within the current group of four.
#define CONVGRADPOS(j, lo, hi) \
	MOVQ (8*j)(R8)(CX*8), AX      \
	VBROADCASTSD (R13)(AX*8), Y8  \
	VMOVUPD (BX), Y9              \
	VMOVUPD 32(BX), Y10           \
	VMULPD Y8, Y9, Y9             \
	VMULPD Y8, Y10, Y10           \
	VADDPD Y9, lo, lo             \
	VADDPD Y10, hi, hi            \
	ADDQ R14, BX

// func convGradAVX(gt, in, dyt *float64, tapOff, posBase *int, taps, spatial, stride int)
// One sample into one eight-channel block of gt. Bias row first: the
// serial sum over positions from +0, then one add into gt[taps]. Then per
// tap, Y0/Y1 .. Y6/Y7 are position classes 0..3 (pos%4) of channels
// 0-3/4-7 — the four partial-sum streams of dot4, vectorised across
// channels; a spatial%4 tail folds into class 0; the collapse is
// ((s0+s1)+s2)+s3 and the row takes one add.
TEXT ·convGradAVX(SB), NOSPLIT, $0-64
	MOVQ gt+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ dyt+16(FP), DX
	MOVQ tapOff+24(FP), R9
	MOVQ posBase+32(FP), R8
	MOVQ taps+40(FP), R10
	MOVQ spatial+48(FP), R11
	MOVQ stride+56(FP), R14
	SHLQ $3, R14             // row in bytes
	MOVQ R11, R12
	ANDQ $-4, R12            // positions in full groups of four

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ DX, BX
	XORQ CX, CX

gbias:
	CMPQ CX, R11
	JGE  gbiasdone
	VADDPD (BX), Y0, Y0
	VADDPD 32(BX), Y1, Y1
	ADDQ R14, BX
	INCQ CX
	JMP  gbias

gbiasdone:
	MOVQ R10, AX
	IMULQ R14, AX
	ADDQ DI, AX              // &gt[taps][0]
	VMOVUPD (AX), Y2
	VMOVUPD 32(AX), Y3
	VADDPD Y0, Y2, Y2
	VADDPD Y1, Y3, Y3
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)

gtap:
	TESTQ R10, R10
	JZ   gdone
	MOVQ (R9), AX
	LEAQ (SI)(AX*8), R13     // the tap's view of the sample
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, BX
	XORQ CX, CX

gpos4:
	CMPQ CX, R12
	JGE  gtail
	CONVGRADPOS(0, Y0, Y1)
	CONVGRADPOS(1, Y2, Y3)
	CONVGRADPOS(2, Y4, Y5)
	CONVGRADPOS(3, Y6, Y7)
	ADDQ $4, CX
	JMP  gpos4

gtail:
	CMPQ CX, R11
	JGE  gcollapse
	CONVGRADPOS(0, Y0, Y1)
	INCQ CX
	JMP  gtail

gcollapse:
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD Y0, Y8, Y8
	VADDPD Y1, Y9, Y9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ R14, DI
	ADDQ $8, R9
	DECQ R10
	JMP  gtap

gdone:
	VZEROUPPER
	RET

// GRADINSTEP4 advances one tap's four position vectors by one output
// channel: the tap's weight (broadcast in w, the first factor) times the
// channel's sixteen gradients at BX, then the add with the accumulator as
// first source — per lane the scalar t += w*dy.
#define GRADINSTEP4(w, a0, a1, a2, a3) \
	VMULPD (BX), w, Y10   \
	VMULPD 32(BX), w, Y11 \
	VMULPD 64(BX), w, Y12 \
	VMULPD 96(BX), w, Y13 \
	VADDPD Y10, a0, a0    \
	VADDPD Y11, a1, a1    \
	VADDPD Y12, a2, a2    \
	VADDPD Y13, a3, a3

// GRADINSTEP1 is GRADINSTEP4 for a single position vector.
#define GRADINSTEP1(w, a) \
	VMULPD (BX), w, Y10 \
	VADDPD Y10, a, a

// GRADINSCATTER adds a finished vector of terms into the cells of
// position group j of the current block (cells first source). R15 is the
// tap's view of the padded sample, CX the block's first position.
#define GRADINSCATTER(j, v) \
	MOVQ (32*j)(R9)(CX*8), AX  \
	VMOVUPD (R15)(AX*8), Y14   \
	VADDPD v, Y14, Y14         \
	VMOVUPD Y14, (R15)(AX*8)

// GRADINNEXTOC steps the weight and gradient pointers to the next output
// channel and closes the channel loop.
#define GRADINNEXTOC(loop) \
	ADDQ R13, R12 \
	ADDQ R14, BX  \
	DECQ AX       \
	JNZ  loop

// func convGradInAVX(dpad, dy, w *float64, tapOff, posBase *int, taps, spatial, outC, split int)
// One sample's input gradient into its zeroed padded sample. Lanes are
// four contiguous positions: a term vector is a chain over the output
// channels ascending from +0, one VMULPD and one VADDPD per channel, and
// is then added once into the four cells posBase[pos..pos+3]+tapOff[p].
// Taps go in ascending order, so a cell's adds arrive in col2im's order.
// With split > 0 taps p and p+split run together — Y0-Y3 and Y4-Y7 over a
// block of sixteen positions, eight chains in flight — which reorders
// nothing as long as the two halves of the taps share no cell; blocks of
// four finish a plane that is not a multiple of sixteen. With split = 0
// every tap runs alone. spatial%4 must be 0 and outC > 0.
TEXT ·convGradInAVX(SB), NOSPLIT, $0-72
	MOVQ dpad+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ w+16(FP), DX        // &w[0][p], walks the taps
	MOVQ tapOff+24(FP), R8   // &tapOff[p], walks the taps
	MOVQ posBase+32(FP), R9
	MOVQ taps+40(FP), R13
	SHLQ $3, R13             // weight row in bytes
	MOVQ spatial+48(FP), R14
	SHLQ $3, R14             // gradient plane in bytes
	MOVQ split+64(FP), R11
	TESTQ R11, R11
	JZ   isingle
	MOVQ R11, R10            // tap pairs to go
	SHLQ $3, R11             // distance to the partner tap in bytes

ipair:
	XORQ CX, CX              // pos

ipair16:
	LEAQ 16(CX), AX
	CMPQ AX, spatial+48(FP)
	JGT  ipair4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (SI)(CX*8), BX      // &dy[0][pos]
	MOVQ DX, R12
	MOVQ outC+56(FP), AX

ipair16oc:
	VBROADCASTSD (R12), Y8
	VBROADCASTSD (R12)(R11*1), Y9
	GRADINSTEP4(Y8, Y0, Y1, Y2, Y3)
	GRADINSTEP4(Y9, Y4, Y5, Y6, Y7)
	GRADINNEXTOC(ipair16oc)
	MOVQ (R8), AX
	LEAQ (DI)(AX*8), R15
	GRADINSCATTER(0, Y0)
	GRADINSCATTER(1, Y1)
	GRADINSCATTER(2, Y2)
	GRADINSCATTER(3, Y3)
	MOVQ (R8)(R11*1), AX
	LEAQ (DI)(AX*8), R15
	GRADINSCATTER(0, Y4)
	GRADINSCATTER(1, Y5)
	GRADINSCATTER(2, Y6)
	GRADINSCATTER(3, Y7)
	ADDQ $16, CX
	JMP  ipair16

ipair4:
	CMPQ CX, spatial+48(FP)
	JGE  ipairnext
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	LEAQ (SI)(CX*8), BX
	MOVQ DX, R12
	MOVQ outC+56(FP), AX

ipair4oc:
	VBROADCASTSD (R12), Y8
	VBROADCASTSD (R12)(R11*1), Y9
	GRADINSTEP1(Y8, Y0)
	GRADINSTEP1(Y9, Y4)
	GRADINNEXTOC(ipair4oc)
	MOVQ (R8), AX
	LEAQ (DI)(AX*8), R15
	GRADINSCATTER(0, Y0)
	MOVQ (R8)(R11*1), AX
	LEAQ (DI)(AX*8), R15
	GRADINSCATTER(0, Y4)
	ADDQ $4, CX
	JMP  ipair4

ipairnext:
	ADDQ $8, DX
	ADDQ $8, R8
	DECQ R10
	JNZ  ipair
	VZEROUPPER
	RET

isingle:
	MOVQ taps+40(FP), R10    // taps to go

itap:
	XORQ CX, CX

itap16:
	LEAQ 16(CX), AX
	CMPQ AX, spatial+48(FP)
	JGT  itap4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(CX*8), BX
	MOVQ DX, R12
	MOVQ outC+56(FP), AX

itap16oc:
	VBROADCASTSD (R12), Y8
	GRADINSTEP4(Y8, Y0, Y1, Y2, Y3)
	GRADINNEXTOC(itap16oc)
	MOVQ (R8), AX
	LEAQ (DI)(AX*8), R15
	GRADINSCATTER(0, Y0)
	GRADINSCATTER(1, Y1)
	GRADINSCATTER(2, Y2)
	GRADINSCATTER(3, Y3)
	ADDQ $16, CX
	JMP  itap16

itap4:
	CMPQ CX, spatial+48(FP)
	JGE  itapnext
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(CX*8), BX
	MOVQ DX, R12
	MOVQ outC+56(FP), AX

itap4oc:
	VBROADCASTSD (R12), Y8
	GRADINSTEP1(Y8, Y0)
	GRADINNEXTOC(itap4oc)
	MOVQ (R8), AX
	LEAQ (DI)(AX*8), R15
	GRADINSCATTER(0, Y0)
	ADDQ $4, CX
	JMP  itap4

itapnext:
	ADDQ $8, DX
	ADDQ $8, R8
	DECQ R10
	JNZ  itap
	VZEROUPPER
	RET

// Wire kernels (simd_wire.go). Each takes whole blocks of eight elements
// and a reference pointer that may be nil: the delta loop subtracts (or
// adds back) the reference, the plain loop is the same body without it.

// WIRERANGE folds the eight residuals in Y4/Y5 into the running minimum
// (Y0/Y1) and maximum (Y2/Y3). d−d is +0 for a finite d and NaN for ±Inf
// and NaN, so e = d + (d−d) is d itself when d is finite (a zero may lose
// its sign) and NaN otherwise; VMINPD/VMAXPD return their second source
// — here the accumulator — whenever either source is NaN, so a non-finite
// residual leaves the range alone.
#define WIRERANGE \
	VSUBPD Y4, Y4, Y6             \
	VSUBPD Y5, Y5, Y7             \
	VADDPD Y6, Y4, Y4             \
	VADDPD Y7, Y5, Y5             \
	VMINPD Y0, Y4, Y0             \
	VMINPD Y1, Y5, Y1             \
	VMAXPD Y2, Y4, Y2             \
	VMAXPD Y3, Y5, Y3

// func deltaRangeAVX(v, ref *float64, n int) (lo, hi float64)
// Finite min and max of v[i]−ref[i] (of v[i] when ref is nil) over n%8 == 0
// elements. Minimum and maximum are exact, so the lane order cannot change
// the value — only which zero's sign survives, which the Go wrapper
// settles by rescanning when either end compares equal to zero.
TEXT ·deltaRangeAVX(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), SI
	MOVQ ref+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ $0x7FF0000000000000, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0      // +Inf
	VMOVAPD Y0, Y1
	MOVQ $0xFFF0000000000000, AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2      // -Inf
	VMOVAPD Y2, Y3
	XORQ AX, AX
	TESTQ DX, DX
	JZ   rplain

rdelta:
	CMPQ AX, CX
	JGE  rreduce
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VSUBPD  (DX)(AX*8), Y4, Y4
	VSUBPD  32(DX)(AX*8), Y5, Y5
	WIRERANGE
	ADDQ $8, AX
	JMP  rdelta

rplain:
	CMPQ AX, CX
	JGE  rreduce
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	WIRERANGE
	ADDQ $8, AX
	JMP  rplain

rreduce:
	VMINPD Y1, Y0, Y0
	VMAXPD Y3, Y2, Y2
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y2, X5
	VMINPD X4, X0, X0
	VMAXPD X5, X2, X2
	VPERMILPD $1, X0, X4
	VPERMILPD $1, X2, X5
	VMINSD X4, X0, X0
	VMAXSD X5, X2, X2
	VMOVSD X0, lo+24(FP)
	VMOVSD X2, hi+32(FP)
	VZEROUPPER
	RET

// WIREQUANT quantises the eight residuals in Y4/Y5 and stores eight bytes
// at (DI)(AX*1). x = (d−lo)/scale; both masks are compares on x (GE_OQ, so
// a NaN x is in neither): lanes not ≥ 0.5 are cleared, lanes ≥ 254.5 take
// 255.0, the rest x+0.5 — every lane is in [0, 255] before the truncating
// convert, none relies on its out-of-range result. Y11 = 255.0,
// Y12 = 254.5, Y13 = 0.5, Y14 = scale, Y15 = lo.
#define WIREQUANT \
	VSUBPD Y15, Y4, Y4            \
	VSUBPD Y15, Y5, Y5            \
	VDIVPD Y14, Y4, Y4            \
	VDIVPD Y14, Y5, Y5            \
	VCMPPD $0x1d, Y13, Y4, Y6     \
	VCMPPD $0x1d, Y13, Y5, Y7     \
	VCMPPD $0x1d, Y12, Y4, Y8     \
	VCMPPD $0x1d, Y12, Y5, Y9     \
	VADDPD Y13, Y4, Y4            \
	VADDPD Y13, Y5, Y5            \
	VBLENDVPD Y8, Y11, Y4, Y4     \
	VBLENDVPD Y9, Y11, Y5, Y5     \
	VANDPD Y6, Y4, Y4             \
	VANDPD Y7, Y5, Y5             \
	VCVTTPD2DQY Y4, X4            \
	VCVTTPD2DQY Y5, X5            \
	VPACKSSDW X5, X4, X4          \
	VPACKUSWB X4, X4, X4          \
	VMOVQ X4, (DI)(AX*1)

// func quantDeltaAVX(dst *byte, v, ref *float64, n int, lo, scale float64)
// dst[i] = clamp(round(((v[i]−ref[i])−lo)/scale), 0, 255) over n%8 == 0
// elements: two subtractions and one division per lane, the three
// roundings of the scalar loop. scale must be > 0.
TEXT ·quantDeltaAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ ref+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD lo+32(FP), Y15
	VBROADCASTSD scale+40(FP), Y14
	MOVQ $0x3FE0000000000000, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13    // 0.5
	MOVQ $0x406FD00000000000, AX
	VMOVQ AX, X12
	VPBROADCASTQ X12, Y12    // 254.5
	MOVQ $0x406FE00000000000, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11    // 255.0
	XORQ AX, AX
	TESTQ DX, DX
	JZ   qplain

qdelta:
	CMPQ AX, CX
	JGE  qdone
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VSUBPD  (DX)(AX*8), Y4, Y4
	VSUBPD  32(DX)(AX*8), Y5, Y5
	WIREQUANT
	ADDQ $8, AX
	JMP  qdelta

qplain:
	CMPQ AX, CX
	JGE  qdone
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	WIREQUANT
	ADDQ $8, AX
	JMP  qplain

qdone:
	VZEROUPPER
	RET

// WIREDEQUANT expands the eight bytes at (SI)(AX*1) to lo + scale·q in
// Y4/Y5: one VMULPD then one VADDPD per lane, no fused multiply-add.
// Y14 = scale, Y15 = lo.
#define WIREDEQUANT \
	VPMOVZXBD (SI)(AX*1), X4      \
	VPMOVZXBD 4(SI)(AX*1), X5     \
	VCVTDQ2PD X4, Y4              \
	VCVTDQ2PD X5, Y5              \
	VMULPD Y4, Y14, Y4            \
	VMULPD Y5, Y14, Y5            \
	VADDPD Y4, Y15, Y4            \
	VADDPD Y5, Y15, Y5

// func dequantAddAVX(dst *float64, q *byte, ref *float64, n int, lo, scale float64)
// dst[i] = (lo + scale·float64(q[i])) + ref[i] over n%8 == 0 elements; the
// reference add is skipped, not replaced by +0, when ref is nil.
TEXT ·dequantAddAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ ref+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD lo+32(FP), Y15
	VBROADCASTSD scale+40(FP), Y14
	XORQ AX, AX
	TESTQ DX, DX
	JZ   dplain

ddelta:
	CMPQ AX, CX
	JGE  ddone
	WIREDEQUANT
	VADDPD (DX)(AX*8), Y4, Y4
	VADDPD 32(DX)(AX*8), Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  ddelta

dplain:
	CMPQ AX, CX
	JGE  ddone
	WIREDEQUANT
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  dplain

ddone:
	VZEROUPPER
	RET

// Generator kernels (simd_rng.go). Both walk a ring block from its top
// word down, the order source.advance makes the draws in.

// func ringAddAVX(dst, src *int64, n int)
// dst[i] += src[i], four words per step from i = n−4 down to 0. When src
// lies 273 words above dst the words a step reads were written at least
// 273 words — many steps — earlier, as the one-draw-at-a-time order has
// it; n%4 == 0 and n > 0.
TEXT ·ringAddAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

aloop:
	SUBQ    $4, CX
	VMOVDQU (SI)(CX*8), Y0
	VPADDQ  (DI)(CX*8), Y0, Y0
	VMOVDQU Y0, (DI)(CX*8)
	TESTQ   CX, CX
	JNZ     aloop
	VZEROUPPER
	RET

// Optimizer kernel (simd_sgd.go).

// func momentumAVX(p, v, grad *float64, n int, lr, m float64)
// v[i] = m·v[i] + g[i], then p[i] = p[i] − lr·v[i], eight elements a step
// over n%8 == 0, n > 0. The products are rounded before the add and the
// subtract (no FMA), and m·v and p are the first sources, as they are the
// destinations of Go's scalar MULSD/ADDSD/SUBSD: when both operands of
// an add or subtract are NaN, the first source's payload survives.
TEXT ·momentumAVX(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ grad+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD lr+32(FP), Y15
	VBROADCASTSD m+40(FP), Y14
	XORQ AX, AX

mloop:
	VMULPD  (SI)(AX*8), Y14, Y0    // m·v
	VMULPD  32(SI)(AX*8), Y14, Y1
	VADDPD  (DX)(AX*8), Y0, Y0     // m·v + g
	VADDPD  32(DX)(AX*8), Y1, Y1
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y1, 32(SI)(AX*8)
	VMULPD  Y0, Y15, Y0            // lr·v
	VMULPD  Y1, Y15, Y1
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y3
	VSUBPD  Y0, Y2, Y2             // p − lr·v
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  mloop
	VZEROUPPER
	RET

// Gamma lanes (simd_rng.go).

// GAMMAQUAD fills four doubles of gammaConst from off.
#define GAMMAQUAD(off, v) \
	DATA gammaConst<>+(off)(SB)/8, v    \
	DATA gammaConst<>+(off+8)(SB)/8, v  \
	DATA gammaConst<>+(off+16)(SB)/8, v \
	DATA gammaConst<>+(off+24)(SB)/8, v

// gammaConst: 2^84 and 2^52 — OR-ing a 31- or 32-bit half of an Int63
// into their mantissas and subtracting them gives the half as an exact
// double — 2^−63 and the squeeze's 0.0331, four copies each; then 1, the
// strip mask 0x7F as four dwords, and the bytes 0–11.
GAMMAQUAD(0x00, $0x4530000000000000) // 2^84
GAMMAQUAD(0x20, $0x4330000000000000) // 2^52
GAMMAQUAD(0x40, $0x3C00000000000000) // 2^−63
GAMMAQUAD(0x60, $0x3FA0F27BB2FEC56D) // 0.0331
DATA gammaConst<>+0x80(SB)/8, $0x3FF0000000000000 // 1
DATA gammaConst<>+0x88(SB)/8, $0x0000007F0000007F // 0x7F
DATA gammaConst<>+0x90(SB)/8, $0x0000007F0000007F
DATA gammaConst<>+0x98(SB)/8, $0x0706050403020100 // word indices 0–11
DATA gammaConst<>+0xa0(SB)/4, $0x0B0A0908
GLOBL gammaConst<>(SB), RODATA|NOPTR, $0xa4

// GAMMAUNIT(r, t) turns the raw words in r into float64(Int63)/2^63, as
// source.float64 computes it: the Int63's bits 32–62 and 0–31 become
// exact doubles hi·2^32 and lo, and their sum is rounded once, as the
// conversion rounds; the division by 2^63 is exact. t is clobbered.
#define GAMMAUNIT(r, t) \
	VPSLLQ $1, r, t                    \
	VPSRLQ $33, t, t                   \
	VPOR   gammaConst<>+0x00(SB), t, t \
	VSUBPD gammaConst<>+0x00(SB), t, t \
	VPSLLQ $32, r, r                   \
	VPSRLQ $32, r, r                   \
	VPOR   gammaConst<>+0x20(SB), r, r \
	VSUBPD gammaConst<>+0x20(SB), r, r \
	VADDPD r, t, r                     \
	VMULPD gammaConst<>+0x40(SB), r, r

// GAMMABODY runs the four lanes' normal and squeeze from the raw j words
// in Y4 and w words in Y5: x = float64(j)·float64(wn[i]), DX's bits set
// where |j| ≥ kn[i] (unsigned), Y9 the lanes where v = 1 + c·x > 0 and
// w < 1 − 0.0331·x·x·x·x, and Y7 = d·v³. Clobbers Y4, Y5, Y8, Y10.
#define GAMMABODY \
	VPSRLQ     $31, Y4, Y4                    \
	VPSHUFD    $0x08, Y4, Y4                  \
	VPERMQ     $0x08, Y4, Y4                  \
	VPAND      gammaConst<>+0x88(SB), X4, X7  \
	VPCMPEQD   X8, X8, X8                     \
	VPGATHERDD X8, (R10)(X7*4), X9            \
	VPCMPEQD   X8, X8, X8                     \
	VGATHERDPS X8, (R11)(X7*4), X10           \
	VPABSD     X4, X8                         \
	VPMAXUD    X9, X8, X9                     \
	VPCMPEQD   X9, X8, X9                     \
	VMOVMSKPS  X9, DX                         \
	VCVTDQ2PD  X4, Y4                         \
	VCVTPS2PD  X10, Y10                       \
	VMULPD     Y10, Y4, Y4                    \
	VMULPD     Y14, Y4, Y8                    \
	VADDPD     Y13, Y8, Y8                    \
	VXORPD     Y9, Y9, Y9                     \
	VCMPPD     $0x1e, Y9, Y8, Y9              \
	VMULPD     Y8, Y8, Y10                    \
	VMULPD     Y8, Y10, Y8                    \
	GAMMAUNIT(Y5, Y10)                        \
	VMULPD     gammaConst<>+0x60(SB), Y4, Y10 \
	VMULPD     Y4, Y10, Y10                   \
	VMULPD     Y4, Y10, Y10                   \
	VMULPD     Y4, Y10, Y10                   \
	VSUBPD     Y10, Y13, Y10                  \
	VCMPPD     $0x11, Y10, Y5, Y10            \
	VANDPD     Y10, Y9, Y9                    \
	VMULPD     Y15, Y8, Y7

// GAMMAFAST sets R12's bits 0–3 for the lanes in Y9 whose normal was a
// fast hit and flags on 15, every lane on the path.
#define GAMMAFAST \
	VMOVMSKPD Y9, R12 \
	NOTL      DX      \
	ANDL      DX, R12 \
	CMPL      R12, $15

// GAMMAKEEP stores the step's four variates (Y7) and adds them to the sum
// in X12 in index order.
#define GAMMAKEEP \
	VMOVUPD      Y7, (DI)     \
	VADDSD       X7, X12, X12 \
	VPERMILPD    $1, X7, X8   \
	VADDSD       X8, X12, X12 \
	VEXTRACTF128 $1, Y7, X8   \
	VADDSD       X8, X12, X12 \
	VPERMILPD    $1, X8, X8   \
	VADDSD       X8, X12, X12

// func gammaLanesAVX(p *float64, n int, feed, tap *int64, words int, d, c, sum float64) (kept int, total float64)
// Four Marsaglia–Tsang draws per step, n%4 == 0, n > 0. A step's window
// is the 4·words words from feed (and tap) up; the step's draw k is
// feed[4·words−1−k] + tap[4·words−1−k], so its sums — A, B, C for words
// 0–3, 4–7, 8–11 — are de-interleaved into one vector per role, lane L
// holding draw L·words + role. A step whose lanes all stay on the path is
// kept whole: variates stored and summed, sums written back — the draws
// made — and the windows step down. Otherwise the lanes before the first
// one off the path are kept the same way and the kernel returns.
TEXT ·gammaLanesAVX(SB), NOSPLIT, $0-80
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ feed+16(FP), SI
	MOVQ tap+24(FP), BX
	MOVQ words+32(FP), R9
	VBROADCASTSD d+40(FP), Y15
	VBROADCASTSD c+48(FP), Y14
	VBROADCASTSD gammaConst<>+0x80(SB), Y13 // 1
	VMOVSD sum+56(FP), X12
	LEAQ ·kn(SB), R10
	LEAQ ·wn(SB), R11
	XORQ AX, AX              // variates kept
	CMPQ R9, $3
	JEQ  g3loop

g2loop:
	VMOVDQU     0(SI), Y0
	VPADDQ      0(BX), Y0, Y0      // A: draws 7–4, the top word first
	VMOVDQU     32(SI), Y1
	VPADDQ      32(BX), Y1, Y1     // B: draws 3–0
	VPUNPCKHQDQ Y1, Y0, Y4
	VPERMQ      $0x27, Y4, Y4      // j: draws 0, 2, 4, 6
	VPUNPCKLQDQ Y1, Y0, Y5
	VPERMQ      $0x27, Y5, Y5      // w: draws 1, 3, 5, 7
	GAMMABODY
	GAMMAFAST
	JNE  gpartial
	GAMMAKEEP
	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 32(SI)
	SUBQ $64, SI
	SUBQ $64, BX
	ADDQ $32, DI
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  g2loop
	JMP  gdone

g3loop:
	VMOVDQU  0(SI), Y0
	VPADDQ   0(BX), Y0, Y0         // A: draws 11–8, the top word first
	VMOVDQU  32(SI), Y1
	VPADDQ   32(BX), Y1, Y1        // B: draws 7–4
	VMOVDQU  64(SI), Y2
	VPADDQ   64(BX), Y2, Y2        // C: draws 3–0
	VPBLENDD $0x0C, Y1, Y0, Y3
	VPBLENDD $0xC3, Y2, Y3, Y3
	VPERMQ   $0x93, Y3, Y3         // u: draws 0, 3, 6, 9
	VPBLENDD $0xC3, Y1, Y0, Y4
	VPBLENDD $0x30, Y2, Y4, Y4
	VPERMQ   $0x4E, Y4, Y4         // j: draws 1, 4, 7, 10
	VPBLENDD $0x0C, Y2, Y0, Y5
	VPBLENDD $0x30, Y1, Y5, Y5
	VPERMQ   $0x39, Y5, Y5         // w: draws 2, 5, 8, 11
	GAMMAUNIT(Y3, Y6)
	VXORPD   Y7, Y7, Y7
	VCMPPD   $0x1e, Y7, Y3, Y6     // u > 0: Int63 ≠ 0
	VCMPPD   $0x11, Y13, Y3, Y7    // u < 1: no redraw
	VANDPD   Y7, Y6, Y6
	VMULPD   Y3, Y3, Y3            // boost u·u
	GAMMABODY
	VMULPD   Y3, Y7, Y7            // (d·v³)·boost
	VANDPD   Y6, Y9, Y9
	GAMMAFAST
	JNE  gpartial
	GAMMAKEEP
	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	SUBQ $96, SI
	SUBQ $96, BX
	ADDQ $32, DI
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  g3loop
	JMP  gdone

gpartial:
	// Keep lanes 0 to L−1, L the first lane off the path: their variates
	// are stored and summed, lanes from L as +0 (p is rewritten there
	// later), and their draws — the window's top L·words words — are made.
	NOTL R12
	BSFL R12, R12
	ADDQ R12, AX
	VMOVQ R12, X8
	VPBROADCASTQ X8, Y8
	VPMOVZXBQ gammaConst<>+0x98(SB), Y9
	VPCMPGTQ Y9, Y8, Y9           // lane < L
	VANDPD Y9, Y7, Y7
	GAMMAKEEP
	MOVQ $4, R13
	SUBQ R12, R13
	IMULQ R9, R13
	DECQ R13
	VMOVQ R13, X8
	VPBROADCASTQ X8, Y8           // words above words·(4−L) − 1 are made
	VPMOVZXBQ gammaConst<>+0x98(SB), Y9
	VPCMPGTQ Y8, Y9, Y9
	VMOVDQU 0(SI), Y0
	VPADDQ  0(BX), Y0, Y0
	VPMASKMOVQ Y0, Y9, 0(SI)
	VPMOVZXBQ gammaConst<>+0x9c(SB), Y9
	VPCMPGTQ Y8, Y9, Y9
	VMOVDQU 32(SI), Y1
	VPADDQ  32(BX), Y1, Y1
	VPMASKMOVQ Y1, Y9, 32(SI)
	CMPQ R9, $3
	JNE  gdone
	VPMOVZXBQ gammaConst<>+0xa0(SB), Y9
	VPCMPGTQ Y8, Y9, Y9
	VMOVDQU 64(SI), Y2
	VPADDQ  64(BX), Y2, Y2
	VPMASKMOVQ Y2, Y9, 64(SI)

gdone:
	MOVQ AX, kept+64(FP)
	VMOVSD X12, total+72(FP)
	VZEROUPPER
	RET

// func divAVX(p *float64, n int, s float64)
// p[i] /= s, four elements a step over n%4 == 0, n > 0. VDIVPD rounds
// each quotient correctly, as DIVSD does.
TEXT ·divAVX(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD s+16(FP), Y1
	XORQ AX, AX

nloop:
	VMOVUPD (DI)(AX*8), Y0
	VDIVPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  nloop
	VZEROUPPER
	RET
