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

// Linear-layer GEMM kernels (avx2Backend.Gemm). Every output element
// keeps the chain of its GoBackend twin: the NN and TransA forms run
// from +0 (or the prior value) over p ascending, one VMULPD then one
// VADDPD per step; the TransB form runs dot4's four streams, tail into
// stream 0, collapsed ((s0+s1)+s2)+s3. Edges run on the same vectors:
// a ragged column group loads and stores through a VMASKMOVPD lane mask.

// maskTab is four all-ones quadwords then four zero ones: the 4-lane load
// at maskTab+32−8w sets lanes 0..w−1, the VMASKMOVPD mask of a w-column
// edge (1 ≤ w ≤ 4).
DATA maskTab<>+0x00(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x08(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x10(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x18(SB)/8, $0xffffffffffffffff
DATA maskTab<>+0x20(SB)/8, $0
DATA maskTab<>+0x28(SB)/8, $0
DATA maskTab<>+0x30(SB)/8, $0
DATA maskTab<>+0x38(SB)/8, $0
GLOBL maskTab<>(SB), RODATA|NOPTR, $64

// EDGEMASK sets Y15 to the lane mask of the w = min(cols, 4) columns
// left, cols in CX (≥ 1); CX and tmp are clobbered.
#define EDGEMASK(tmp) \
	CMPQ    CX, $4                 \
	JLE     2(PC)                  \
	MOVQ    $4, CX                 \
	NEGQ    CX                     \
	LEAQ    maskTab<>+32(SB), tmp  \
	VMOVUPD (tmp)(CX*8), Y15

// AXROW2 advances one tile row by one step: the row's a element,
// broadcast, times the step's eight b columns in Y8/Y9, each product
// added with the accumulator as first source — per lane c += b·a.
#define AXROW2(aaddr, acc0, acc1) \
	VBROADCASTSD aaddr, Y10      \
	VMULPD       Y10, Y8, Y11    \
	VADDPD       Y11, acc0, acc0 \
	VMULPD       Y10, Y9, Y12    \
	VADDPD       Y12, acc1, acc1

// AXROW1 is AXROW2 for a row of four columns, b in Y8.
#define AXROW1(aaddr, acc) \
	VBROADCASTSD aaddr, Y10    \
	VMULPD       Y10, Y8, Y11  \
	VADDPD       Y11, acc, acc

// AXCOL advances four columns of a single-row tile by one step: the b
// vector off bytes into the step's row times the broadcast a in Y10.
#define AXCOL(off, acc) \
	VMOVUPD off(BX), Y8       \
	VMULPD  Y10, Y8, Y8       \
	VADDPD  Y8, acc, acc

// ZERO4 clears four accumulators.
#define ZERO4(r0, r1, r2, r3) \
	VXORPD r0, r0, r0 \
	VXORPD r1, r1, r1 \
	VXORPD r2, r2, r2 \
	VXORPD r3, r3, r3

// func gemmAxpyAVX(dst, a, b *float64, m, k, n, ars, aps int, acc bool)
// dst (=|+=) A·b with A(i,p) = a[i·ars + p·aps] (NN: ars = k, aps = 1;
// TransA: ars = 1, aps = m), b k×n and dst m×n row-major, k ≥ 1. Row
// quads run a 4×8 tile — Y0..Y7 hold its four rows' two column vectors for
// the whole reduction, each step four broadcasts, two b loads and eight
// VMULPD/VADDPD pairs — then a 4×4 masked tile per ragged column group.
// The m%4 rows left run alone, 32 columns a tile (eight accumulators, one
// broadcast), then 8, then a masked 4.
TEXT ·gemmAxpyAVX(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), R14
	MOVQ a+8(FP), R12
	MOVQ b+16(FP), R13
	MOVQ m+24(FP), DX        // rows left
	MOVQ k+32(FP), R15
	MOVQ n+40(FP), R11
	SHLQ $3, R11             // dst and b row stride in bytes
	MOVQ ars+48(FP), R8
	SHLQ $3, R8              // a's row stride in bytes
	LEAQ (R8)(R8*2), R9      // three rows of a
	MOVQ aps+56(FP), R10
	SHLQ $3, R10             // a's step stride in bytes

quad:
	CMPQ DX, $4
	JLT  single
	XORQ AX, AX              // first column of the tile

quad8:
	LEAQ 8(AX), CX
	CMPQ CX, n+40(FP)
	JGT  quad4
	LEAQ (R14)(AX*8), DI     // tile rows 0, 1
	LEAQ (DI)(R11*2), BX     // tile rows 2, 3
	CMPB acc+64(FP), $0
	JEQ  quad8zero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R11*1), Y2
	VMOVUPD 32(DI)(R11*1), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD (BX)(R11*1), Y6
	VMOVUPD 32(BX)(R11*1), Y7
	JMP  quad8run

quad8zero:
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)

quad8run:
	MOVQ R12, SI
	LEAQ (R13)(AX*8), BX
	MOVQ R15, CX

quad8loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	AXROW2((SI), Y0, Y1)
	AXROW2((SI)(R8*1), Y2, Y3)
	AXROW2((SI)(R8*2), Y4, Y5)
	AXROW2((SI)(R9*1), Y6, Y7)
	ADDQ R10, SI
	ADDQ R11, BX
	DECQ CX
	JNZ  quad8loop
	LEAQ    (DI)(R11*2), BX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R11*1)
	VMOVUPD Y3, 32(DI)(R11*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R11*1)
	VMOVUPD Y7, 32(BX)(R11*1)
	ADDQ    $8, AX
	JMP     quad8

quad4:
	MOVQ n+40(FP), CX
	SUBQ AX, CX              // columns left
	JLE  quadnext
	EDGEMASK(BX)
	LEAQ (R14)(AX*8), DI
	LEAQ (DI)(R11*2), BX
	CMPB acc+64(FP), $0
	JEQ  quad4zero
	VMASKMOVPD (DI), Y15, Y0
	VMASKMOVPD (DI)(R11*1), Y15, Y1
	VMASKMOVPD (BX), Y15, Y2
	VMASKMOVPD (BX)(R11*1), Y15, Y3
	JMP        quad4run

quad4zero:
	ZERO4(Y0, Y1, Y2, Y3)

quad4run:
	MOVQ R12, SI
	LEAQ (R13)(AX*8), BX
	MOVQ R15, CX

quad4loop:
	VMASKMOVPD (BX), Y15, Y8
	AXROW1((SI), Y0)
	AXROW1((SI)(R8*1), Y1)
	AXROW1((SI)(R8*2), Y2)
	AXROW1((SI)(R9*1), Y3)
	ADDQ R10, SI
	ADDQ R11, BX
	DECQ CX
	JNZ  quad4loop
	LEAQ       (DI)(R11*2), BX
	VMASKMOVPD Y0, Y15, (DI)
	VMASKMOVPD Y1, Y15, (DI)(R11*1)
	VMASKMOVPD Y2, Y15, (BX)
	VMASKMOVPD Y3, Y15, (BX)(R11*1)
	ADDQ       $4, AX
	JMP        quad4

quadnext:
	LEAQ (R12)(R8*4), R12
	LEAQ (R14)(R11*4), R14
	SUBQ $4, DX
	JMP  quad

single:
	TESTQ DX, DX
	JEQ   done
	XORQ  AX, AX

one32:
	LEAQ 32(AX), CX
	CMPQ CX, n+40(FP)
	JGT  one8
	LEAQ (R14)(AX*8), DI
	CMPB acc+64(FP), $0
	JEQ  one32zero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	JMP     one32run

one32zero:
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)

one32run:
	MOVQ R12, SI
	LEAQ (R13)(AX*8), BX
	MOVQ R15, CX

one32loop:
	VBROADCASTSD (SI), Y10
	AXCOL(0, Y0)
	AXCOL(32, Y1)
	AXCOL(64, Y2)
	AXCOL(96, Y3)
	AXCOL(128, Y4)
	AXCOL(160, Y5)
	AXCOL(192, Y6)
	AXCOL(224, Y7)
	ADDQ R10, SI
	ADDQ R11, BX
	DECQ CX
	JNZ  one32loop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $32, AX
	JMP     one32

one8:
	LEAQ 8(AX), CX
	CMPQ CX, n+40(FP)
	JGT  one4
	LEAQ (R14)(AX*8), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPB acc+64(FP), $0
	JEQ  one8run
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

one8run:
	MOVQ R12, SI
	LEAQ (R13)(AX*8), BX
	MOVQ R15, CX

one8loop:
	VBROADCASTSD (SI), Y10
	AXCOL(0, Y0)
	AXCOL(32, Y1)
	ADDQ R10, SI
	ADDQ R11, BX
	DECQ CX
	JNZ  one8loop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $8, AX
	JMP     one8

one4:
	MOVQ n+40(FP), CX
	SUBQ AX, CX
	JLE  onenext
	EDGEMASK(BX)
	LEAQ (R14)(AX*8), DI
	VXORPD Y0, Y0, Y0
	CMPB acc+64(FP), $0
	JEQ  one4run
	VMASKMOVPD (DI), Y15, Y0

one4run:
	MOVQ R12, SI
	LEAQ (R13)(AX*8), BX
	MOVQ R15, CX

one4loop:
	VBROADCASTSD (SI), Y10
	VMASKMOVPD   (BX), Y15, Y8
	VMULPD       Y10, Y8, Y8
	VADDPD       Y8, Y0, Y0
	ADDQ R10, SI
	ADDQ R11, BX
	DECQ CX
	JNZ  one4loop
	VMASKMOVPD Y0, Y15, (DI)
	ADDQ       $4, AX
	JMP        one4

onenext:
	ADDQ R8, R12
	ADDQ R11, R14
	DECQ DX
	JMP  single

done:
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

// DOTCELL advances the two cells of one b row (in Y10) by one vector of
// the reduction: a rows in Y8/Y9 times b, added with the accumulator as
// first source — per lane dot4's s += a·b.
#define DOTCELL(acc0, acc1) \
	VMULPD Y10, Y8, Y11     \
	VADDPD Y11, acc0, acc0  \
	VMULPD Y10, Y9, Y12     \
	VADDPD Y12, acc1, acc1

// func gemmDotAVX(dst, a, b *float64, m, k, n int, acc bool)
// dst (=|+=) a·bᵀ with a m×k, b n×k and dst m×n row-major, k ≥ 1. A tile
// is two rows of dst × four columns: Y0..Y3 and Y4..Y7 are its cells,
// lane l of a cell dot4's stream p ≡ l mod 4, over the k&^3 steps in
// groups of four. Each row's four cells are then transposed in registers
// (Y0 = the four cells' s0, Y1 their s1, …), the k%4 tail goes into the
// s0 vector a step at a time, the collapse is ((s0+s1)+s2)+s3 in three
// vertical adds, and the row takes one store (or one add into dst). An
// odd last row runs as its own pair (stored twice, same bits, after both
// rows' dst are read); a ragged last column group repeats b's last row in
// the missing cells and stores through the lane mask.
TEXT ·gemmDotAVX(SB), NOSPLIT, $0-49
	MOVQ k+32(FP), R8
	SHLQ $3, R8              // a and b row stride in bytes
	MOVQ R8, R15
	ANDQ $-32, R15           // bytes in whole groups of four
	XORQ BX, BX              // first row of the pair

pair:
	CMPQ  BX, m+24(FP)
	JGE   dotdone
	MOVQ  BX, AX
	IMULQ R8, AX
	MOVQ  a+8(FP), SI
	ADDQ  AX, SI             // a row i
	MOVQ  BX, AX
	IMULQ n+40(FP), AX
	MOVQ  dst+0(FP), DI
	LEAQ  (DI)(AX*8), DI     // dst row i
	MOVQ  SI, DX             // a row i+1 …
	MOVQ  DI, R13            // … and its dst row: row i again when i is last
	LEAQ  1(BX), AX
	CMPQ  AX, m+24(FP)
	JGE   cols
	ADDQ  R8, DX
	MOVQ  n+40(FP), AX
	LEAQ  (R13)(AX*8), R13

cols:
	XORQ R14, R14            // first column of the group

group:
	CMPQ    R14, n+40(FP)
	JGE     nextpair
	MOVQ    n+40(FP), CX
	DECQ    CX               // b's last row
	MOVQ    R14, AX
	IMULQ   R8, AX
	MOVQ    b+16(FP), R9
	ADDQ    AX, R9           // b row j
	LEAQ    1(R14), AX
	LEAQ    (R9)(R8*1), R10
	CMPQ    AX, CX
	CMOVQGT R9, R10          // past the last row: repeat it
	INCQ    AX
	LEAQ    (R10)(R8*1), R11
	CMPQ    AX, CX
	CMOVQGT R10, R11
	INCQ    AX
	LEAQ    (R11)(R8*1), R12
	CMPQ    AX, CX
	CMOVQGT R11, R12
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)
	XORQ    AX, AX           // byte offset of the step

dot4:
	CMPQ    AX, R15
	JGE     collapse
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD (DX)(AX*1), Y9
	VMOVUPD (R9)(AX*1), Y10
	DOTCELL(Y0, Y4)
	VMOVUPD (R10)(AX*1), Y10
	DOTCELL(Y1, Y5)
	VMOVUPD (R11)(AX*1), Y10
	DOTCELL(Y2, Y6)
	VMOVUPD (R12)(AX*1), Y10
	DOTCELL(Y3, Y7)
	ADDQ    $32, AX
	JMP     dot4

collapse:
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7)

dottail:
	CMPQ         AX, R8
	JGE          dotsum
	VMOVSD       (R9)(AX*1), X10
	VMOVHPD      (R10)(AX*1), X10, X10
	VMOVSD       (R11)(AX*1), X11
	VMOVHPD      (R12)(AX*1), X11, X11
	VINSERTF128  $1, X11, Y10, Y10 // the step's four b elements
	VBROADCASTSD (SI)(AX*1), Y8
	VBROADCASTSD (DX)(AX*1), Y9
	DOTCELL(Y0, Y4)
	ADDQ         $8, AX
	JMP          dottail

dotsum:
	VADDPD Y1, Y0, Y0
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	VADDPD Y5, Y4, Y4
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y4, Y4
	MOVQ   n+40(FP), CX
	SUBQ   R14, CX           // columns left
	CMPQ   CX, $4
	JLT    dotedge
	CMPB   acc+48(FP), $0
	JEQ    dotput
	VMOVUPD (DI)(R14*8), Y8
	VMOVUPD (R13)(R14*8), Y9
	VADDPD  Y0, Y8, Y0
	VADDPD  Y4, Y9, Y4

dotput:
	VMOVUPD Y0, (DI)(R14*8)
	VMOVUPD Y4, (R13)(R14*8)
	ADDQ    $4, R14
	JMP     group

dotedge:
	EDGEMASK(AX)
	CMPB acc+48(FP), $0
	JEQ  dotedgeput
	VMASKMOVPD (DI)(R14*8), Y15, Y8
	VMASKMOVPD (R13)(R14*8), Y15, Y9
	VADDPD     Y0, Y8, Y0
	VADDPD     Y4, Y9, Y4

dotedgeput:
	VMASKMOVPD Y0, Y15, (DI)(R14*8)
	VMASKMOVPD Y4, Y15, (R13)(R14*8)

nextpair:
	ADDQ $2, BX
	JMP  pair

dotdone:
	VZEROUPPER
	RET

// poolLaneIdx seeds the 2x2 maxpool index vector: the input column index
// of each lane's first candidate within its step's eight columns.
DATA poolLaneIdx<>+0x00(SB)/8, $0
DATA poolLaneIdx<>+0x08(SB)/8, $2
DATA poolLaneIdx<>+0x10(SB)/8, $4
DATA poolLaneIdx<>+0x18(SB)/8, $6
GLOBL poolLaneIdx<>(SB), RODATA|NOPTR, $32

// func maxPool2AVX(dst *float64, am *int, src *float64, rows, steps int)
// A ReLU and then non-overlapping 2x2 stride-2 max pooling with argmax, 4
// output elements per step, rows and steps ≥ 1, over row pairs w =
// 8·steps elements wide. A step's top-row candidates come from the
// 4-element loads at +0 and +32 bytes, its bottom-row candidates from the
// same two loads w elements on. Each lane replays the scalar loop
// exactly: best starts at +0, index at -1, and the four window candidates
// are tested in (dy, dx) ascending order with a strict > compare (GT_OQ,
// so NaN never wins) and mask blends.
TEXT ·maxPool2AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ am+8(FP), R8
	MOVQ src+16(FP), BX      // row0
	MOVQ rows+24(FP), R9
	MOVQ steps+32(FP), R14
	SHLQ $3, R14             // W
	XORQ R12, R12            // flat index of the row pair's first element

	VXORPD Y15, Y15, Y15     // +0
	VMOVDQU poolLaneIdx<>+0(SB), Y14
	VMOVQ R14, X12
	VPBROADCASTQ X12, Y12    // W
	VPCMPEQQ Y10, Y10, Y10   // -1
	VPSUBQ Y10, Y15, Y11     // 1
	VPSLLQ $3, Y11, Y13      // 8, the per-step index advance
	LEAQ (R14*8), R10        // W in bytes

rowloop:
	LEAQ (BX)(R10*1), R11    // row1
	VMOVQ R12, X4
	VPBROADCASTQ X4, Y4
	VPADDQ Y14, Y4, Y4       // lane candidate-(0,0) indices
	XORQ DX, DX              // byte offset of the step's first load
	MOVQ steps+32(FP), R13

iter:
	// Deinterleave each row's 8 elements into even/odd columns.
	VMOVUPD (BX)(DX*1), Y0
	VMOVUPD 32(BX)(DX*1), Y1
	VSHUFPD $0x0, Y1, Y0, Y2
	VPERMPD $0xd8, Y2, Y2    // candidates (0,0)
	VSHUFPD $0xf, Y1, Y0, Y3
	VPERMPD $0xd8, Y3, Y3    // candidates (0,1)
	VMOVUPD (R11)(DX*1), Y0
	VMOVUPD 32(R11)(DX*1), Y1
	VSHUFPD $0x0, Y1, Y0, Y6
	VPERMPD $0xd8, Y6, Y6    // candidates (1,0)
	VSHUFPD $0xf, Y1, Y0, Y7
	VPERMPD $0xd8, Y7, Y7    // candidates (1,1)

	VMOVUPD Y15, Y8          // best = +0
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
	ADDQ $64, DX
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ R13
	JNZ  iter
	LEAQ (BX)(R10*2), BX
	LEAQ (R12)(R14*2), R12
	DECQ R9
	JNZ  rowloop
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

// Server fold kernels (simd_fold.go).

// func lerpAVX(dst, v, w *float64, n int, a, b float64)
// dst[i] = a·v[i] + b·w[i], eight elements a step over n%8 == 0, n > 0.
// Both products are rounded before the add (no FMA), and a·v is the
// add's first source, so when both products are NaN v's payload
// survives, as in the twin's subtract. Every element is loaded before it
// is stored, so dst may alias v or w.
TEXT ·lerpAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD a+32(FP), Y0
	VBROADCASTSD b+40(FP), Y1
	XORQ AX, AX

lloop:
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VMOVUPD (DX)(AX*8), Y4
	VMOVUPD 32(DX)(AX*8), Y5
	VMULPD  Y0, Y2, Y2             // a·v
	VMULPD  Y0, Y3, Y3
	VMULPD  Y1, Y4, Y4             // b·w
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y2, Y2             // a·v + b·w
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  lloop
	VZEROUPPER
	RET

// func allFiniteAVX(v *float64, n int) bool
// Reports whether v[0:n] has no NaN or ±Inf, sixteen elements a step over
// n%16 == 0, n > 0. x − x is +0 for every finite x and NaN otherwise, and
// OR-ing a NaN into anything leaves a NaN, so the accumulators end as +0
// unless some element was not finite.
TEXT ·allFiniteAVX(SB), NOSPLIT, $0-17
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ AX, AX

floop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VSUBPD  Y0, Y0, Y0
	VSUBPD  Y1, Y1, Y1
	VSUBPD  Y2, Y2, Y2
	VSUBPD  Y3, Y3, Y3
	VORPD   Y0, Y4, Y4
	VORPD   Y1, Y5, Y5
	VORPD   Y2, Y4, Y4
	VORPD   Y3, Y5, Y5
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  floop
	VORPD     Y5, Y4, Y4
	VCMPPD    $3, Y4, Y4, Y4       // unordered: NaN lanes become all ones
	VMOVMSKPD Y4, AX
	TESTL     AX, AX
	SETEQ     ret+16(FP)
	VZEROUPPER
	RET

// Data-movement kernels (simd_glue.go).

// func narrowAVX(dst *float32, src *float64, planes, h, w int)
// planes × h rows of w float64 (w%4 == 0, every count ≥ 1) from
// contiguous src to the float32 interiors of planes padded by one: rows
// w+2 elements apart, two rows more after each plane. VCVTPD2PS rounds
// as CVTSD2SS does, so each element is Go's float32(v), NaN payloads
// included.
TEXT ·narrowAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ planes+16(FP), R8
	MOVQ w+32(FP), CX
	LEAQ 8(CX*4), R10        // a padded row in bytes
	LEAQ (R10)(R10*1), R11   // the two border rows between planes

nplane:
	MOVQ h+24(FP), R9

nrow:
	XORQ AX, AX

ncol:
	VCVTPD2PSY (SI)(AX*8), X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  ncol
	LEAQ (SI)(CX*8), SI
	ADDQ R10, DI
	DECQ R9
	JNZ  nrow
	ADDQ R11, DI
	DECQ R8
	JNZ  nplane
	VZEROUPPER
	RET

// unpoolIdx seeds the unpool's cell indices: the step's first four
// top-row cells, relative to its sample.
DATA unpoolIdx<>+0x00(SB)/8, $0
DATA unpoolIdx<>+0x08(SB)/8, $1
DATA unpoolIdx<>+0x10(SB)/8, $2
DATA unpoolIdx<>+0x18(SB)/8, $3
GLOBL unpoolIdx<>(SB), RODATA|NOPTR, $32

// func unpoolAVX(dx, grad *float64, am *int, batch, rows, steps int)
// Every count ≥ 1; a row pair is w = 8·steps cells wide. Windows j = 0, 1
// of a step own the top-row run at +0, j = 2, 3 the one four cells on:
// duplicating each window's argmax and +0 + g across its two columns, a
// cell's value is that gradient where the argmax equals the cell's index,
// +0 elsewhere (VPCMPEQQ, VANDPD). The bottom row is the same w cells on.
TEXT ·unpoolAVX(SB), NOSPLIT, $0-48
	MOVQ dx+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ am+16(FP), R8
	MOVQ batch+24(FP), R9
	MOVQ steps+40(FP), R10
	SHLQ $3, R10             // W
	VXORPD Y15, Y15, Y15
	MOVQ $4, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13    // the second run's offset
	VMOVQ R10, X12
	VPBROADCASTQ X12, Y12    // W
	SHLQ $3, R10             // W in bytes

usample:
	VMOVDQU unpoolIdx<>+0(SB), Y9
	MOVQ rows+32(FP), BX

uprow:
	MOVQ steps+40(FP), CX

upstep:
	VMOVDQU (R8), Y0
	VADDPD  (SI), Y15, Y1    // +0 + g
	VPERMQ  $0x50, Y0, Y2    // argmax of windows 0 0 1 1
	VPERMQ  $0xfa, Y0, Y3    // 2 2 3 3
	VPERMPD $0x50, Y1, Y4
	VPERMPD $0xfa, Y1, Y5
	VPADDQ  Y13, Y9, Y6
	VPCMPEQQ Y9, Y2, Y0
	VANDPD   Y4, Y0, Y0
	VMOVUPD  Y0, (DI)
	VPADDQ   Y12, Y9, Y7
	VPCMPEQQ Y7, Y2, Y0
	VANDPD   Y4, Y0, Y0
	VMOVUPD  Y0, (DI)(R10*1)
	VPCMPEQQ Y6, Y3, Y0
	VANDPD   Y5, Y0, Y0
	VMOVUPD  Y0, 32(DI)
	VPADDQ   Y12, Y6, Y7
	VPCMPEQQ Y7, Y3, Y0
	VANDPD   Y5, Y0, Y0
	VMOVUPD  Y0, 32(DI)(R10*1)
	VPADDQ   Y13, Y6, Y9
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $64, DI
	DECQ CX
	JNZ  upstep
	VPADDQ Y12, Y9, Y9       // past the bottom row
	ADDQ R10, DI
	DECQ BX
	JNZ  uprow
	DECQ R9
	JNZ  usample
	VZEROUPPER
	RET

// Winograd kernels (winograd.go). Lanes are the eight tiles of a group:
// the low half its first quad, the high half its second, each half pair
// 1's two tiles then pair 2's. A quad's tile pair starts at a window (or
// output) origin from the group table; its second pair is d2 on.

// WINOROW loads one row of the group's 4×4 windows from the row pointers
// CX (low quad) and DX (high quad), R13 the second pair's offset, splits
// it into the window columns c0..c3 (one VSHUFPS each: even and odd
// elements of the pairs' columns 0–3 and 2–5) and writes the row stage
// e0 = c0 − c2, e1 = c1 + c2, e2 = c2 − c1, e3 = c1 − c3; R12 steps the
// pointers to the next row.
#define WINOROW(e0, e1, e2, e3) \
	VMOVUPS (CX), X8                       \
	VINSERTF128 $1, (DX), Y8, Y8           \
	VMOVUPS (CX)(R13*1), X9                \
	VINSERTF128 $1, (DX)(R13*1), Y9, Y9    \
	VMOVUPS 8(CX), X10                     \
	VINSERTF128 $1, 8(DX), Y10, Y10        \
	VMOVUPS 8(CX)(R13*1), X11              \
	VINSERTF128 $1, 8(DX)(R13*1), Y11, Y11 \
	VSHUFPS $0x88, Y9, Y8, Y12             \
	VSHUFPS $0xDD, Y9, Y8, Y13             \
	VSHUFPS $0x88, Y11, Y10, Y14           \
	VSHUFPS $0xDD, Y11, Y10, Y15           \
	VSUBPS Y14, Y12, e0                    \
	VADDPS Y14, Y13, e1                    \
	VSUBPS Y13, Y14, e2                    \
	VSUBPS Y15, Y13, e3                    \
	ADDQ R12, CX                           \
	ADDQ R12, DX

// func winoInAVX(v, in *float32, tab *int, groups, chans, plane, pw, d2 int)
// V = Bᵀ d B of every group and channel into v[g][c][ξ][lane]: rows 0
// and 1 of e stay in Y0..Y7, row 2 finishes V rows 0–2 (e1 kept for
// row 3), row 3 finishes V row 3.
TEXT ·winoInAVX(SB), NOSPLIT, $0-64
	MOVQ v+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ tab+16(FP), R8
	MOVQ groups+24(FP), R9
	MOVQ plane+40(FP), R11
	SHLQ $2, R11
	MOVQ pw+48(FP), R12
	SHLQ $2, R12
	MOVQ d2+56(FP), R13
	SHLQ $2, R13

wigroup:
	MOVQ (R8), AX
	LEAQ (SI)(AX*4), AX      // the low quad's windows in channel 0
	MOVQ 8(R8), BX
	LEAQ (SI)(BX*4), BX
	MOVQ chans+32(FP), R10

wichan:
	MOVQ AX, CX
	MOVQ BX, DX
	WINOROW(Y0, Y1, Y2, Y3)
	WINOROW(Y4, Y5, Y6, Y7)
	WINOROW(Y8, Y9, Y10, Y11)
	VSUBPS Y8, Y0, Y0        // V[0][j] = e0 − e2
	VSUBPS Y9, Y1, Y1
	VSUBPS Y10, Y2, Y2
	VSUBPS Y11, Y3, Y3
	VADDPS Y8, Y4, Y12       // V[1][j] = e1 + e2
	VADDPS Y9, Y5, Y13
	VADDPS Y10, Y6, Y14
	VADDPS Y11, Y7, Y15
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)
	VSUBPS Y4, Y8, Y8        // V[2][j] = e2 − e1
	VSUBPS Y5, Y9, Y9
	VSUBPS Y6, Y10, Y10
	VSUBPS Y7, Y11, Y11
	VMOVUPS Y8, 256(DI)
	VMOVUPS Y9, 288(DI)
	VMOVUPS Y10, 320(DI)
	VMOVUPS Y11, 352(DI)
	WINOROW(Y8, Y9, Y10, Y11)
	VSUBPS Y8, Y4, Y4        // V[3][j] = e1 − e3
	VSUBPS Y9, Y5, Y5
	VSUBPS Y10, Y6, Y6
	VSUBPS Y11, Y7, Y7
	VMOVUPS Y4, 384(DI)
	VMOVUPS Y5, 416(DI)
	VMOVUPS Y6, 448(DI)
	VMOVUPS Y7, 480(DI)
	ADDQ $512, DI
	ADDQ R11, AX
	ADDQ R11, BX
	DECQ R10
	JNZ  wichan
	ADDQ $16, R8
	DECQ R9
	JNZ  wigroup
	VZEROUPPER
	RET

// WINOPROD advances component ξ's accumulator by one input channel: the
// channel's filter component (broadcast from R10) times its eight tiles
// at R11, added with the accumulator first.
#define WINOPROD(xi, acc) \
	VBROADCASTSS (4*xi)(R10), Y15 \
	VMULPS (32*xi)(R11), Y15, Y15 \
	VADDPS Y15, acc, acc

// WINOHALF runs the channel sum of eight components, a0..a7 = M[i][j]
// for i = 0..3 and two columns j (components x0..x7), then Aᵀ's rows over them:
// Z[0][j] = (M[0][j] + M[1][j]) + M[2][j] lands in a0 and a1, Z[1][j] =
// (M[1][j] − M[2][j]) − M[3][j] in a2 and a3. DX and SI address the
// channel's filters and the group's tiles, DI is InC.
#define WINOHALF(lbl, x0, x1, x2, x3, x4, x5, x6, x7, a0, a1, a2, a3, a4, a5, a6, a7) \
	MOVQ DX, R10                 \
	MOVQ SI, R11                 \
	MOVQ DI, CX                  \
	VXORPS a0, a0, a0            \
	VXORPS a1, a1, a1            \
	VXORPS a2, a2, a2            \
	VXORPS a3, a3, a3            \
	VXORPS a4, a4, a4            \
	VXORPS a5, a5, a5            \
	VXORPS a6, a6, a6            \
	VXORPS a7, a7, a7            \
lbl:                             \
	WINOPROD(x0, a0)             \
	WINOPROD(x1, a1)             \
	WINOPROD(x2, a2)             \
	WINOPROD(x3, a3)             \
	WINOPROD(x4, a4)             \
	WINOPROD(x5, a5)             \
	WINOPROD(x6, a6)             \
	WINOPROD(x7, a7)             \
	ADDQ $64, R10                \
	ADDQ $512, R11               \
	DECQ CX                      \
	JNZ  lbl                     \
	VADDPS a2, a0, a0            \
	VADDPS a4, a0, a0            \
	VSUBPS a4, a2, a2            \
	VSUBPS a6, a2, a2            \
	VADDPS a3, a1, a1            \
	VADDPS a5, a1, a1            \
	VSUBPS a5, a3, a3            \
	VSUBPS a7, a3, a3

// WINOSTORE writes output row y of the group's tiles for one channel:
// p and q are Y[y][0] and Y[y][1], interleaved into each pair's four
// outputs, widened, Y12 added and stored at R10 (low quad) and R11 (high
// quad), pair 2 R15 further on.
#define WINOSTORE(p, q) \
	VUNPCKLPS q, p, Y0        \
	VUNPCKHPS q, p, Y1        \
	VCVTPS2PD X0, Y2          \
	VEXTRACTF128 $1, Y0, X3   \
	VCVTPS2PD X3, Y3          \
	VCVTPS2PD X1, Y4          \
	VEXTRACTF128 $1, Y1, X5   \
	VCVTPS2PD X5, Y5          \
	VADDPD Y12, Y2, Y2        \
	VADDPD Y12, Y3, Y3        \
	VADDPD Y12, Y4, Y4        \
	VADDPD Y12, Y5, Y5        \
	VMOVUPD Y2, (R10)         \
	VMOVUPD Y3, (R11)         \
	VMOVUPD Y4, (R10)(R15*1)  \
	VMOVUPD Y5, (R11)(R15*1)

// winoTap is the pooled epilogue's tap codes as float64: −1, 1, 2, 3.
DATA winoTap<>+0x00(SB)/8, $0xbff0000000000000
DATA winoTap<>+0x08(SB)/8, $0x3ff0000000000000
DATA winoTap<>+0x10(SB)/8, $0x4000000000000000
DATA winoTap<>+0x18(SB)/8, $0x4008000000000000
GLOBL winoTap<>(SB), RODATA|NOPTR, $32

// WINOTAP widens one tap of four tiles (x, float32 lanes 0–3) and adds
// the bias in Y12. Y1 marks the tiles where it is strictly greater than
// their best so far in Y4 (GT_OQ, so NaN never wins), and VMAXPD, which
// returns its second source unless the first is strictly greater, makes
// it the best there.
#define WINOTAP(x) \
	VCVTPS2PD x, Y0          \
	VADDPD Y12, Y0, Y0       \
	VCMPPD $0x1e, Y4, Y0, Y1 \
	VMAXPD Y4, Y0, Y4

// WINOPOOL pools the four tiles in lanes 0–3 of Y8..Y11 (taps (0, 0),
// (0, 1), (1, 0), (1, 1)) from best +0 and code −1 in Y5, each tap's mask
// setting the code to its own (+0 by VANDNPD, 1 and 2 from Y13 and Y14,
// 3), and stores each tile pair's two values at dst and R15 bytes on,
// their codes as int32 at codes and CX bytes on.
#define WINOPOOL(dst, codes) \
	VXORPD Y4, Y4, Y4                 \
	VBROADCASTSD winoTap<>+0(SB), Y5  \
	WINOTAP(X8)                       \
	VANDNPD Y5, Y1, Y5                \
	WINOTAP(X9)                       \
	VBLENDVPD Y1, Y13, Y5, Y5         \
	WINOTAP(X10)                      \
	VBLENDVPD Y1, Y14, Y5, Y5         \
	WINOTAP(X11)                      \
	VBROADCASTSD winoTap<>+24(SB), Y2 \
	VBLENDVPD Y1, Y2, Y5, Y5          \
	VMOVUPD X4, (dst)                 \
	VEXTRACTF128 $1, Y4, (dst)(R15*1) \
	VCVTTPD2DQY Y5, X5                \
	VMOVQ X5, (codes)                 \
	VPEXTRQ $1, X5, (codes)(CX*1)

// func winoOutAVX(out *float64, v, u *float32, bias *float64, tab *int, groups, inC, outC, plane, ow, d2 int, taps *int32)
// Per group and output channel: the channel sum of all sixteen
// components in two halves (columns 0–1, then 2–3), Aᵀ·A, then the four
// outputs of every tile widened with the bias added — with no bias, −0,
// which leaves every value as it is. With taps, each tile is pooled
// instead (WINOPOOL): one value at the tile's offset in out and its code
// at the same offset in taps, at taps + (R12 − out)/2 bytes.
TEXT ·winoOutAVX(SB), NOSPLIT, $0-96
	MOVQ v+8(FP), SI
	MOVQ tab+32(FP), R8
	MOVQ groups+40(FP), R9
	MOVQ plane+64(FP), R14
	SHLQ $3, R14
	MOVQ d2+80(FP), R15
	SHLQ $3, R15
	VBROADCASTSD winoTap<>+8(SB), Y13
	VBROADCASTSD winoTap<>+16(SB), Y14

wogroup:
	MOVQ out+0(FP), DI
	MOVQ (R8), R12
	LEAQ (DI)(R12*8), R12    // the low quad's outputs in channel 0
	MOVQ 8(R8), R13
	LEAQ (DI)(R13*8), R13
	MOVQ u+16(FP), DX
	MOVQ bias+24(FP), BX
	MOVQ outC+56(FP), AX
	MOVQ inC+48(FP), DI      // the channel sum's length

wochan:
	WINOHALF(woa, 0, 1, 4, 5, 8, 9, 12, 13, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	WINOHALF(wob, 2, 3, 6, 7, 10, 11, 14, 15, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VADDPS Y1, Y0, Y8        // Y[0][0] = (Z00 + Z01) + Z02
	VADDPS Y4, Y8, Y8
	VSUBPS Y4, Y1, Y9        // Y[0][1] = (Z01 − Z02) − Z03
	VSUBPS Y5, Y9, Y9
	VADDPS Y3, Y2, Y10       // Y[1][0]
	VADDPS Y6, Y10, Y10
	VSUBPS Y6, Y3, Y11       // Y[1][1]
	VSUBPS Y7, Y11, Y11
	TESTQ BX, BX
	JZ   wonobias
	VBROADCASTSD (BX), Y12
	ADDQ $8, BX
	JMP  wobias

wonobias:
	VPCMPEQQ Y12, Y12, Y12
	VPSLLQ $63, Y12, Y12     // −0

wobias:
	MOVQ taps+88(FP), CX
	TESTQ CX, CX
	JNZ  wopool
	MOVQ R12, R10
	MOVQ R13, R11
	WINOSTORE(Y8, Y9)
	MOVQ ow+72(FP), CX
	LEAQ (R10)(CX*8), R10
	LEAQ (R11)(CX*8), R11
	WINOSTORE(Y10, Y11)

wonext:
	MOVQ DI, CX
	SHLQ $6, CX
	ADDQ CX, DX              // the next channel's filters
	ADDQ R14, R12
	ADDQ R14, R13
	DECQ AX
	JNZ  wochan
	MOVQ inC+48(FP), CX
	SHLQ $9, CX
	ADDQ CX, SI              // the next group's tiles
	ADDQ $16, R8
	DECQ R9
	JNZ  wogroup
	VZEROUPPER
	RET

wopool:                          // a code is half a value's size
	MOVQ R12, R10
	SUBQ out+0(FP), R10
	SHRQ $1, R10
	ADDQ CX, R10             // the low quad's codes
	MOVQ R13, R11
	SUBQ out+0(FP), R11
	SHRQ $1, R11
	ADDQ CX, R11
	MOVQ R15, CX
	SHRQ $1, CX
	WINOPOOL(R12, R10)
	VEXTRACTF128 $1, Y8, X8  // the high quad's tiles
	VEXTRACTF128 $1, Y9, X9
	VEXTRACTF128 $1, Y10, X10
	VEXTRACTF128 $1, Y11, X11
	WINOPOOL(R13, R11)
	JMP  wonext

// WINOST stores one transformed component and steps DX to the next
// component's block.
#define WINOST(x) \
	VMOVUPS x, (DX) \
	ADDQ R15, DX

// func winoDyAVX(s, db, dy *float32, tab *int, groups, outC, plane, pw, d2 int, dup bool)
// Ã dy Ãᵀ of every group and output channel into s[ξ][g][o][lane], and
// the tile sums T[1][1] added into db[o][lane]. Y14 masks the tiles: all
// ones, or zero in the high half of a repeated last quad.
TEXT ·winoDyAVX(SB), NOSPLIT, $0-73
	MOVQ s+0(FP), DI
	MOVQ dy+16(FP), SI
	MOVQ tab+24(FP), R8
	MOVQ groups+32(FP), R9
	MOVQ outC+40(FP), R15
	IMULQ R9, R15
	SHLQ $5, R15             // one component's block, bytes
	MOVQ plane+48(FP), R14
	SHLQ $2, R14
	MOVQ pw+56(FP), CX
	SHLQ $2, CX

wdgroup:
	VPCMPEQD Y14, Y14, Y14
	CMPQ R9, $1
	JNE  wdmask
	CMPB dup+72(FP), $0
	JEQ  wdmask
	VPCMPEQD X14, X14, X14   // the high half zeroed

wdmask:
	MOVQ (R8), R10
	LEAQ (SI)(R10*4), R10
	MOVQ 8(R8), R11
	LEAQ (SI)(R11*4), R11
	MOVQ db+8(FP), BX
	MOVQ outC+40(FP), AX

wdchan:
	MOVQ d2+64(FP), R12
	LEAQ (R10)(R12*4), R13
	LEAQ (R11)(R12*4), R12
	VMOVUPS (R10), X8
	VINSERTF128 $1, (R11), Y8, Y8
	VMOVUPS (R13), X9
	VINSERTF128 $1, (R12), Y9, Y9
	VMOVUPS (R10)(CX*1), X10
	VINSERTF128 $1, (R11)(CX*1), Y10, Y10
	VMOVUPS (R13)(CX*1), X11
	VINSERTF128 $1, (R12)(CX*1), Y11, Y11
	VSHUFPS $0x88, Y9, Y8, Y0     // dy[0][0]
	VSHUFPS $0xDD, Y9, Y8, Y1     // dy[0][1]
	VSHUFPS $0x88, Y11, Y10, Y2   // dy[1][0]
	VSHUFPS $0xDD, Y11, Y10, Y3   // dy[1][1]
	VANDPS Y14, Y0, Y0
	VANDPS Y14, Y1, Y1
	VANDPS Y14, Y2, Y2
	VANDPS Y14, Y3, Y3
	VADDPS Y1, Y0, Y4        // h[y] = (dy0, dy0 + dy1, dy0 − dy1, dy1)
	VSUBPS Y1, Y0, Y5
	VADDPS Y3, Y2, Y6
	VSUBPS Y3, Y2, Y7
	MOVQ DI, DX
	WINOST(Y0)
	WINOST(Y4)
	WINOST(Y5)
	WINOST(Y1)
	VADDPS Y2, Y0, Y8        // T[1] = h0 + h1
	VADDPS Y6, Y4, Y9
	VADDPS Y7, Y5, Y10
	VADDPS Y3, Y1, Y11
	WINOST(Y8)
	WINOST(Y9)
	WINOST(Y10)
	WINOST(Y11)
	VSUBPS Y2, Y0, Y8        // T[2] = h0 − h1
	VSUBPS Y6, Y4, Y10
	VSUBPS Y7, Y5, Y11
	VSUBPS Y3, Y1, Y12
	WINOST(Y8)
	WINOST(Y10)
	WINOST(Y11)
	WINOST(Y12)
	WINOST(Y2)
	WINOST(Y6)
	WINOST(Y7)
	WINOST(Y3)
	VMOVUPS (BX), Y13
	VADDPS Y9, Y13, Y13      // db += T[1][1]
	VMOVUPS Y13, (BX)
	ADDQ $32, BX
	ADDQ $32, DI
	ADDQ R14, R10
	ADDQ R14, R11
	DECQ AX
	JNZ  wdchan
	ADDQ $16, R8
	DECQ R9
	JNZ  wdgroup
	VZEROUPPER
	RET

// CONVCOLLAPSE folds each of Y0..Y7 to the sum of its lanes,
// ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), channel k's in lane k of Y1.
#define CONVCOLLAPSE \
	VHADDPS Y1, Y0, Y0           \
	VHADDPS Y3, Y2, Y2           \
	VHADDPS Y5, Y4, Y4           \
	VHADDPS Y7, Y6, Y6           \
	VHADDPS Y2, Y0, Y0           \
	VHADDPS Y6, Y4, Y4           \
	VPERM2F128 $0x20, Y4, Y0, Y1 \
	VPERM2F128 $0x31, Y4, Y0, Y2 \
	VADDPS Y2, Y1, Y1

// func winoMulAVX(mw, acc, v, s *float32, groups, inC, outC int, first, last bool)
// Per component, input channel and block of eight output channels (a
// last block moved back to end on outC): Y0..Y7 are the channels, lanes
// the tile slots, each a chain over the groups ascending of v[g][c][ξ] ·
// s[ξ][g][o], from +0 in the first run of groups and carried in acc (R15)
// from one run to the next; after the last, CONVCOLLAPSE folds the lanes
// and one store writes the block's eight sums.
TEXT ·winoMulAVX(SB), NOSPLIT, $0-58
	MOVQ inC+40(FP), R11
	SHLQ $9, R11             // a group's tiles, bytes
	MOVQ outC+48(FP), R12
	SHLQ $5, R12             // a group's gradient tiles, bytes
	MOVQ groups+32(FP), R13
	IMULQ R12, R13           // one component's block, bytes
	MOVQ mw+0(FP), DI
	MOVQ acc+8(FP), R15
	XORQ R8, R8              // 32·ξ
	XORQ R14, R14            // ξ's block in s

wmxi:
	XORQ R9, R9              // 512·c

wmc:
	XORQ R10, R10            // the block's first channel

wmob:
	MOVQ outC+48(FP), BX
	SUBQ $8, BX
	CMPQ R10, BX
	CMOVQLT R10, BX          // min(block, outC−8)
	MOVQ BX, DX
	SHLQ $5, DX
	ADDQ s+24(FP), DX
	ADDQ R14, DX
	MOVQ v+16(FP), SI
	ADDQ R8, SI
	ADDQ R9, SI
	MOVQ groups+32(FP), CX
	CMPB first+56(FP), $0
	JNE  wmzero
	VMOVUPS (R15), Y0
	VMOVUPS 32(R15), Y1
	VMOVUPS 64(R15), Y2
	VMOVUPS 96(R15), Y3
	VMOVUPS 128(R15), Y4
	VMOVUPS 160(R15), Y5
	VMOVUPS 192(R15), Y6
	VMOVUPS 224(R15), Y7
	JMP  wmg

wmzero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

wmg:
	VMOVUPS (SI), Y8
	VMULPS (DX), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(DX), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS 64(DX), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS 96(DX), Y8, Y12
	VADDPS Y12, Y3, Y3
	VMULPS 128(DX), Y8, Y13
	VADDPS Y13, Y4, Y4
	VMULPS 160(DX), Y8, Y14
	VADDPS Y14, Y5, Y5
	VMULPS 192(DX), Y8, Y15
	VADDPS Y15, Y6, Y6
	VMULPS 224(DX), Y8, Y9
	VADDPS Y9, Y7, Y7
	ADDQ R11, SI
	ADDQ R12, DX
	DECQ CX
	JNZ  wmg
	CMPB last+57(FP), $0
	JNE  wmlast
	VMOVUPS Y0, (R15)
	VMOVUPS Y1, 32(R15)
	VMOVUPS Y2, 64(R15)
	VMOVUPS Y3, 96(R15)
	VMOVUPS Y4, 128(R15)
	VMOVUPS Y5, 160(R15)
	VMOVUPS Y6, 192(R15)
	VMOVUPS Y7, 224(R15)
	JMP  wmnext

wmlast:
	CONVCOLLAPSE
	VMOVUPS Y1, (DI)(BX*4)

wmnext:
	ADDQ $256, R15
	ADDQ $8, R10
	CMPQ R10, outC+48(FP)
	JLT  wmob
	MOVQ outC+48(FP), AX
	LEAQ (DI)(AX*4), DI
	ADDQ $512, R9
	MOVQ inC+40(FP), AX
	SHLQ $9, AX
	CMPQ R9, AX
	JLT  wmc
	ADDQ R13, R14
	ADDQ $32, R8
	CMPQ R8, $512
	JLT  wmxi
	VZEROUPPER
	RET

// winoHalf is ½ as a float32.
DATA winoHalf<>+0(SB)/4, $0x3f000000
GLOBL winoHalf<>(SB), RODATA|NOPTR, $4

// T4 transposes four registers in their 128-bit halves, t0 and t1
// clobbered: element k of row r lands in element r of column k, and
// columns 0–3 end in c, d, a and b.
#define T4(a, b, c, d, t0, t1) \
	VUNPCKLPS b, a, t0 \
	VUNPCKHPS b, a, t1 \
	VUNPCKLPS d, c, a  \
	VUNPCKHPS d, c, b  \
	VUNPCKLPD a, t0, c \
	VUNPCKHPD a, t0, d \
	VUNPCKLPD b, t1, a \
	VUNPCKHPD b, t1, b

// The per-step transforms (winoFilterAVX, winoGradsAVX) work eight
// filters or output channels a register, lanes the channels. Each add
// whose two sources could both be NaN takes its operands in the order the
// compiled Go twin does (the twins' source order where it can, else the
// reverse), so the NaN payloads agree with the twins' too.

// GCOL runs G̃ᵀ's column stage on column j of eight channel pairs'
// sums, components j, 4+j, 8+j, 12+j at m0, m4, m8, m12: a = M0 + h,
// b = ½(M4 − M8), c = h − M12 with h = ½(M8 + M4). Y12 is scratch, Y15
// holds ½.
#define GCOL(m0, m4, m8, m12, a, b, c) \
	VMOVUPS m4, b             \
	VMOVUPS m8, c             \
	VADDPS b, c, a            \
	VSUBPS c, b, b            \
	VMULPS Y15, b, b          \
	VMULPS Y15, a, a          \
	VSUBPS m12, a, c          \
	VMOVUPS m0, Y12           \
	VADDPS a, Y12, a

// GROW runs the row stage on x0..x3 into taps t0 = x0 + h,
// t1 = ½(x1 − x2), t2 = h − x3 with h = ½(h1 + h2) in Y12, (h1, h2)
// being (x1, x2) or (x2, x1).
#define GROW(x0, x1, x2, x3, t0, t1, t2, h1, h2) \
	VADDPS h2, h1, Y12        \
	VMULPS Y15, Y12, Y12      \
	VADDPS Y12, x0, t0        \
	VSUBPS x2, x1, t1         \
	VMULPS Y15, t1, t1        \
	VSUBPS x3, Y12, t2

// GTAP adds the double in x's low lane to the float64 at p and stores it.
#define GTAP(x, p) \
	VADDSD p, x, X11 \
	VMOVSD X11, p

// GTAP4 adds the four doubles in y (x its low half) to the float64s at
// p0..p3; X12 is scratch.
#define GTAP4(x, y, p0, p1, p2, p3) \
	GTAP(x, p0)           \
	VPERMILPD $1, x, X12  \
	GTAP(X12, p1)         \
	VEXTRACTF128 $1, y, x \
	GTAP(x, p2)           \
	VPERMILPD $1, x, X12  \
	GTAP(X12, p3)

// GADD4 widens the four taps in x, adds the gradient at p and stores it.
#define GADD4(x, y, p) \
	VCVTPS2PD x, y    \
	VADDPD p, y, y    \
	VMOVUPD y, p

// GLANES adds taps 0–7 of lanes k and k+4, transposed into yk (taps 0–3)
// and yk4 (4–7), to their gradient rows at p and q.
#define GLANES(xk, yk, xk4, yk4, p, p32, q, q32) \
	GADD4(xk, Y8, p)               \
	GADD4(xk4, Y9, p32)            \
	VEXTRACTF128 $1, yk, X10       \
	GADD4(X10, Y10, q)             \
	VEXTRACTF128 $1, yk4, X10      \
	GADD4(X10, Y10, q32)

// func winoGradsAVX(dW, dB *float64, mw, db *float32, blocks, inC, outC int)
// The first blocks·8 output channels' G̃ᵀ·M·G̃ and bias lanes, added to
// dW and dB. The bias pass transposes each block's eight lanes into
// Y8..Y15 and sums them ((l6 + l7) + (l4 + l5)) + ((l2 + l3) + (l0 +
// l1)). Then per input channel and block the sums of mw[ξ][c][o…] (R8–R11
// at components 0, 4, 8, 12; R12 one component, R13 three) run the
// column and row stages into taps 0–8, tap 8 is added lane by lane, and
// taps 0–7 are transposed and added as rows of doubles: lane l's row at
// DI (SI for l ≥ 4) + (l mod 4)·BX, DX = 3·BX.
TEXT ·winoGradsAVX(SB), NOSPLIT, $0-56
	MOVQ db+24(FP), SI
	MOVQ dB+8(FP), DI
	MOVQ blocks+32(FP), CX

gbias:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VMOVUPS 160(SI), Y5
	VMOVUPS 192(SI), Y6
	VMOVUPS 224(SI), Y7
	T4(Y0, Y1, Y2, Y3, Y8, Y9)
	T4(Y4, Y5, Y6, Y7, Y8, Y9)
	VINSERTF128 $1, X6, Y2, Y8       // lane 0 of the eight channels
	VINSERTF128 $1, X7, Y3, Y9
	VINSERTF128 $1, X4, Y0, Y10
	VINSERTF128 $1, X5, Y1, Y11
	VPERM2F128 $0x31, Y6, Y2, Y12    // lane 4
	VPERM2F128 $0x31, Y7, Y3, Y13
	VPERM2F128 $0x31, Y4, Y0, Y14
	VPERM2F128 $0x31, Y5, Y1, Y15
	VADDPS Y9, Y8, Y8
	VADDPS Y11, Y10, Y10
	VADDPS Y8, Y10, Y10
	VADDPS Y13, Y12, Y12
	VADDPS Y15, Y14, Y14
	VADDPS Y12, Y14, Y14
	VADDPS Y10, Y14, Y14
	GADD4(X14, Y0, (DI))
	VEXTRACTF128 $1, Y14, X14
	GADD4(X14, Y0, 32(DI))
	ADDQ $256, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  gbias

	VBROADCASTSS winoHalf<>(SB), Y15
	MOVQ inC+40(FP), BX
	IMULQ $72, BX             // a gradient row, bytes
	LEAQ (BX)(BX*2), DX
	MOVQ outC+48(FP), R12
	IMULQ inC+40(FP), R12
	SHLQ $2, R12              // one component's sums, bytes
	LEAQ (R12)(R12*2), R13
	MOVQ mw+16(FP), R14
	MOVQ dW+0(FP), R15
	MOVQ inC+40(FP), CX

gchan:
	MOVQ R14, R8
	LEAQ (R8)(R12*4), R9
	LEAQ (R9)(R12*4), R10
	LEAQ (R10)(R12*4), R11
	MOVQ R15, DI
	LEAQ (DI)(BX*4), SI
	MOVQ blocks+32(FP), AX

gblock:
	GCOL((R8), (R9), (R10), (R11), Y0, Y4, Y8)
	GCOL((R8)(R12*1), (R9)(R12*1), (R10)(R12*1), (R11)(R12*1), Y1, Y5, Y9)
	GCOL((R8)(R12*2), (R9)(R12*2), (R10)(R12*2), (R11)(R12*2), Y2, Y6, Y10)
	GCOL((R8)(R13*1), (R9)(R13*1), (R10)(R13*1), (R11)(R13*1), Y3, Y7, Y11)
	GROW(Y0, Y1, Y2, Y3, Y0, Y1, Y2, Y2, Y1)
	GROW(Y4, Y5, Y6, Y7, Y3, Y4, Y5, Y6, Y5)
	GROW(Y8, Y9, Y10, Y11, Y6, Y7, Y8, Y9, Y10)
	VCVTPS2PD X8, Y9          // tap 8, lanes 0–3
	VEXTRACTF128 $1, Y8, X10
	VCVTPS2PD X10, Y10        // lanes 4–7
	GTAP4(X9, Y9, 64(DI), 64(DI)(BX*1), 64(DI)(BX*2), 64(DI)(DX*1))
	GTAP4(X10, Y10, 64(SI), 64(SI)(BX*1), 64(SI)(BX*2), 64(SI)(DX*1))
	T4(Y0, Y1, Y2, Y3, Y8, Y9)
	T4(Y4, Y5, Y6, Y7, Y8, Y9)
	GLANES(X2, Y2, X6, Y6, (DI), 32(DI), (SI), 32(SI))
	GLANES(X3, Y3, X7, Y7, (DI)(BX*1), 32(DI)(BX*1), (SI)(BX*1), 32(SI)(BX*1))
	GLANES(X0, Y0, X4, Y4, (DI)(BX*2), 32(DI)(BX*2), (SI)(BX*2), 32(SI)(BX*2))
	GLANES(X1, Y1, X5, Y5, (DI)(DX*1), 32(DI)(DX*1), (SI)(DX*1), 32(SI)(DX*1))
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	LEAQ (DI)(BX*8), DI
	LEAQ (SI)(BX*8), SI
	DECQ AX
	JNZ  gblock
	MOVQ outC+48(FP), AX
	LEAQ (R14)(AX*4), R14     // the next input channel's sums
	ADDQ $72, R15
	DECQ CX
	JNZ  gchan
	VZEROUPPER
	RET

// FTAPS loads four taps from off of the block's eight filters, filter l
// (and l+4 in the high half) in register l, and transposes them: the
// taps at off, off+8, off+16 and off+24 end in y2, y3, y0 and y1.
#define FTAPS(off, y0, y1, y2, y3, x0, x1, x2, x3) \
	VCVTPD2PSY (off)(SI), x0               \
	VCVTPD2PSY (off+288)(SI), X12          \
	VINSERTF128 $1, X12, y0, y0            \
	VCVTPD2PSY (off+72)(SI), x1            \
	VCVTPD2PSY (off+360)(SI), X12          \
	VINSERTF128 $1, X12, y1, y1            \
	VCVTPD2PSY (off+144)(SI), x2           \
	VCVTPD2PSY (off+432)(SI), X12          \
	VINSERTF128 $1, X12, y2, y2            \
	VCVTPD2PSY (off+216)(SI), x3           \
	VCVTPD2PSY (off+504)(SI), X12          \
	VINSERTF128 $1, X12, y3, y3            \
	T4(y0, y1, y2, y3, Y12, Y13)

// FST stores row i of filters l and l+4, transposed into y, to u, and
// its columns turned (3, 1, 2, 0) to row pi of their flipped filters at
// ut + 4·rl and ut + 4·rl4. Y7 is scratch.
#define FST(x, y, l, i, pi, rl, rl4) \
	VMOVUPS x, (16*i+64*l)(DI)               \
	VEXTRACTF128 $1, y, (16*i+64*l+256)(DI)  \
	VPERMILPS $0x27, y, Y7                   \
	VMOVUPS X7, (16*pi)(BX)(rl*4)            \
	VEXTRACTF128 $1, Y7, (16*pi)(BX)(rl4*4)

// FROW runs the row transform (a, b, c) → (a, ½(s + b), ½(s − b), c),
// s = c + a, over row i of the eight filters and stores it, flipped to
// row pi; the first sum is s1 + s2, s + b or b + s, s in Y1. Y1, Y6 and
// Y7 are scratch.
#define FROW(a, b, c, xa, xb, xc, i, pi, s1, s2) \
	VADDPS a, c, Y1                      \
	VADDPS s2, s1, Y6                    \
	VMULPS Y15, Y6, Y6                   \
	VSUBPS b, Y1, b                      \
	VMULPS Y15, b, b                     \
	T4(a, Y6, b, c, Y1, Y7)              \
	FST(xb, b, 0, i, pi, R8, R12)        \
	FST(xc, c, 1, i, pi, R9, R13)        \
	FST(xa, a, 2, i, pi, R10, R14)       \
	FST(X6, Y6, 3, i, pi, R11, R15)

// func winoFilterAVX(u, ut *float32, w *float64, tab *int, blocks int)
// U = G g Gᵀ of blocks·8 filters into u, and each also flipped into ut
// at the element offset tab gives it (R8–R15 for a block). Taps 0–3, 4–7
// and 5–8 come in as rows of four doubles, narrowed and transposed. The
// column stage keeps g6 + g0 for rows 1 and 2, then each row is
// transformed, transposed back and stored twice.
TEXT ·winoFilterAVX(SB), NOSPLIT, $0-40
	MOVQ u+0(FP), DI
	MOVQ ut+8(FP), BX
	MOVQ w+16(FP), SI
	MOVQ tab+24(FP), DX
	MOVQ blocks+32(FP), AX
	VBROADCASTSS winoHalf<>(SB), Y15

wfblock:
	MOVQ (DX), R8
	MOVQ 8(DX), R9
	MOVQ 16(DX), R10
	MOVQ 24(DX), R11
	MOVQ 32(DX), R12
	MOVQ 40(DX), R13
	MOVQ 48(DX), R14
	MOVQ 56(DX), R15
	FTAPS(0, Y0, Y1, Y2, Y3, X0, X1, X2, X3)   // taps 0–3: Y2, Y3, Y0, Y1
	FTAPS(32, Y4, Y5, Y6, Y7, X4, X5, X6, X7)  // taps 4–7: Y6, Y7, Y4, Y5
	FTAPS(40, Y8, Y9, Y10, Y11, X8, X9, X10, X11) // tap 8: Y9
	VADDPS Y2, Y4, Y8          // s = g6 + g0, g7 + g1, g8 + g2
	VADDPS Y3, Y5, Y10
	VADDPS Y0, Y9, Y11
	VSUBPS Y1, Y8, Y12         // rows 2 and 1: ½(s ∓ g3..5)
	VADDPS Y1, Y8, Y8
	VSUBPS Y6, Y10, Y13
	VADDPS Y6, Y10, Y10
	VSUBPS Y7, Y11, Y14
	VADDPS Y7, Y11, Y11
	VMULPS Y15, Y8, Y8
	VMULPS Y15, Y10, Y10
	VMULPS Y15, Y11, Y11
	VMULPS Y15, Y12, Y12
	VMULPS Y15, Y13, Y13
	VMULPS Y15, Y14, Y14
	FROW(Y2, Y3, Y0, X2, X3, X0, 0, 3, Y1, Y3)
	FROW(Y8, Y10, Y11, X8, X10, X11, 1, 1, Y10, Y1)
	FROW(Y12, Y13, Y14, X12, X13, X14, 2, 2, Y13, Y1)
	FROW(Y4, Y5, Y9, X4, X5, X9, 3, 0, Y1, Y5)
	ADDQ $576, SI
	ADDQ $512, DI
	ADDQ $64, DX
	DECQ AX
	JNZ  wfblock
	VZEROUPPER
	RET

// unpoolPad is the padded unpool's constants: the dword index vector
// {0, 0, 1, 1, 2, 2, 3, 3}, which repeats each of four values across its
// window's two columns, then the tap codes of a top row's two cells,
// {0, 1}, and of a bottom row's, {2, 3}.
DATA unpoolPad<>+0x00(SB)/8, $0x0000000000000000
DATA unpoolPad<>+0x08(SB)/8, $0x0000000100000001
DATA unpoolPad<>+0x10(SB)/8, $0x0000000200000002
DATA unpoolPad<>+0x18(SB)/8, $0x0000000300000003
DATA unpoolPad<>+0x20(SB)/8, $0x0000000100000000
DATA unpoolPad<>+0x28(SB)/8, $0x0000000300000002
GLOBL unpoolPad<>(SB), RODATA|NOPTR, $48

// func unpoolPadAVX(dst *float32, grad *float64, taps *int32, planes, rows, steps, half, pw, skip int)
// Every count ≥ 1. A step takes four windows: +0 + grad, narrowed
// (VCVTPD2PS rounds as Go's float32 conversion does) and repeated across
// each window's two columns, is kept where the window's tap code,
// repeated the same way, equals the cell's (VPCMPEQD, VANDPS), +0
// elsewhere. Windows 0 and 1 own the 4-cell top-row run at +0, 2 and 3
// the one half elements on, each with the run pw elements below; a step
// moves on by 2·half elements, a row of steps by skip more, a plane by
// two more padded rows. half = 4, skip = pw + 2 walks rows of a multiple
// of four windows; half = 2·pw, skip = 0 with pw = 6 takes two stacked
// 2-window rows as one step.
TEXT ·unpoolPadAVX(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ taps+16(FP), R8
	MOVQ planes+24(FP), R9
	MOVQ half+48(FP), R11
	SHLQ $2, R11
	MOVQ pw+56(FP), R10
	SHLQ $2, R10
	MOVQ skip+64(FP), R12
	SHLQ $2, R12
	VXORPD Y7, Y7, Y7
	VMOVDQU unpoolPad<>+0(SB), Y6
	VPBROADCASTQ unpoolPad<>+32(SB), Y4
	VPBROADCASTQ unpoolPad<>+40(SB), Y5

uqplane:
	MOVQ rows+32(FP), BX

uqrow:
	MOVQ steps+40(FP), CX

uqstep:
	VADDPD (SI), Y7, Y0     // +0 + grad
	VCVTPD2PSY Y0, X0
	VPERMPS Y0, Y6, Y0      // g0 g0 g1 g1 g2 g2 g3 g3
	VMOVDQU (R8), X1
	VPERMD Y1, Y6, Y1       // c0 c0 c1 c1 c2 c2 c3 c3
	VPCMPEQD Y4, Y1, Y2
	VANDPS Y0, Y2, Y2
	VPCMPEQD Y5, Y1, Y3
	VANDPS Y0, Y3, Y3
	LEAQ (DI)(R11*1), AX
	VMOVUPS X2, (DI)
	VEXTRACTF128 $1, Y2, (AX)
	VMOVUPS X3, (DI)(R10*1)
	VEXTRACTF128 $1, Y3, (AX)(R10*1)
	ADDQ $32, SI
	ADDQ $16, R8
	LEAQ (DI)(R11*2), DI
	DECQ CX
	JNZ  uqstep
	ADDQ R12, DI
	DECQ BX
	JNZ  uqrow
	LEAQ (DI)(R10*2), DI     // past the bottom and top borders
	DECQ R9
	JNZ  uqplane
	VZEROUPPER
	RET

// Vision finish kernel (sine.go).

// FINPOLY takes the cosine (Y6) and sine (Y7) polynomials one Horner step
// on: p = p·zz + coefficient, the coefficients at c and s in the table.
#define FINPOLY(c, s) \
	VMULPD Y3, Y6, Y6   \
	VMULPD Y3, Y7, Y7   \
	VADDPD c(R8), Y6, Y6 \
	VADDPD s(R8), Y7, Y7

// func finishAVX(dst, v, phase *float64, n int, tab *[20][4]float64) int
// dst[i] = v[i] + 0.4·VisionSin(2·v[i] + phase[i]), four elements a step
// over n%4 == 0, n > 0, in VisionSin's operation order with one rounding
// each (no FMA). A step first checks its arguments x: where one is ±0,
// NaN, ±Inf or |x| ≥ 2^29 it stores nothing and returns the step's start.
// Elsewhere every operand is finite, so no NaN payload can differ from
// the twin's, and j = int32(|x|·4/π) (VCVTTPD2DQ truncates, as CVTTSD2SQ
// does, and |x|·4/π < 2^31). Every element is loaded before it is
// stored, so dst may be v.
TEXT ·finishAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ phase+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ tab+32(FP), R8
	VPCMPEQQ  Y15, Y15, Y15
	VPSLLQ    $63, Y15, Y14        // sign bits
	VPSRLQ    $1, Y15, Y15         // |x| mask
	VPXOR     Y13, Y13, Y13
	VMOVUPD   608(R8), Y12         // reduceBits
	VPCMPEQD  X11, X11, X11
	VPSRLD    $31, X11, X11        // 1 in each int32
	XORQ AX, AX

finloop:
	VMOVUPD   (SI)(AX*8), Y0       // v
	VADDPD    Y0, Y0, Y1           // 2v
	VADDPD    (DX)(AX*8), Y1, Y1   // x = 2v + phase
	VANDPD    Y15, Y1, Y2          // a = |x|
	VPCMPGTQ  Y13, Y2, Y3          // a > 0
	VPCMPGTQ  Y2, Y12, Y4          // a < 2^29, NaN and ±Inf not
	VPAND     Y4, Y3, Y3
	VMOVMSKPD Y3, BX
	CMPL      BX, $15
	JNE       findone
	VMULPD    0(R8), Y2, Y3
	VCVTTPD2DQY Y3, X4             // j = int(a·4/π)
	VPAND     X11, X4, X5
	VPADDD    X5, X4, X4           // j += j&1
	VCVTDQ2PD X4, Y5               // y
	VMULPD    32(R8), Y5, Y6
	VSUBPD    Y6, Y2, Y2           // a − y·pi4a
	VMULPD    64(R8), Y5, Y6
	VSUBPD    Y6, Y2, Y2           // … − y·pi4b
	VMULPD    96(R8), Y5, Y6
	VSUBPD    Y6, Y2, Y2           // z = … − y·pi4c
	VMULPD    Y2, Y2, Y3           // zz
	VMULPD    192(R8), Y3, Y6      // cosCoef[0]·zz
	VMULPD    384(R8), Y3, Y7      // sinCoef[0]·zz
	VADDPD    224(R8), Y6, Y6
	VADDPD    416(R8), Y7, Y7
	FINPOLY(256, 448)
	FINPOLY(288, 480)
	FINPOLY(320, 512)
	FINPOLY(352, 544)
	VMULPD    Y3, Y3, Y8
	VMULPD    Y8, Y6, Y6           // zz·zz·P
	VMULPD    128(R8), Y3, Y8      // 0.5·zz
	VMOVUPD   160(R8), Y9
	VSUBPD    Y8, Y9, Y9           // 1 − 0.5·zz
	VADDPD    Y6, Y9, Y6           // c
	VMULPD    Y3, Y2, Y8           // z·zz
	VMULPD    Y8, Y7, Y7           // z·zz·Q
	VADDPD    Y7, Y2, Y7           // s = z + z·zz·Q
	VPMOVZXDQ X4, Y8               // j in 64-bit lanes
	VPSLLQ    $62, Y8, Y9          // bit 1 of j to the sign: c, not s
	VBLENDVPD Y9, Y6, Y7, Y7
	VPSLLQ    $61, Y8, Y8          // bit 2 of j to the sign
	VXORPD    Y1, Y8, Y8
	VANDPD    Y14, Y8, Y8
	VXORPD    Y8, Y7, Y7           // sin x
	VMULPD    576(R8), Y7, Y7      // 0.4·sin x
	VADDPD    Y0, Y7, Y7           // v + 0.4·sin x
	VMOVUPD   Y7, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  finloop

findone:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET
