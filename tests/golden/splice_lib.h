/* splice_lib.h — plb transaction macros (generated by Splice) */
#ifndef SPLICE_LIB_H
#define SPLICE_LIB_H

typedef unsigned int splice_word_t;
#define SPLICE_BASE_ADDRESS 0x8000401CUL
#define SPLICE_WORD_BYTES 4

#define SET_ADDRESS(id) \
    (SPLICE_BASE_ADDRESS + ((unsigned)(id) * SPLICE_WORD_BYTES))

#define WRITE_SINGLE(a, p) (*(volatile splice_word_t *)(a) = *(splice_word_t *)(p))
#define READ_SINGLE(a, p)  (*(splice_word_t *)(p) = *(volatile splice_word_t *)(a))
#define WRITE_DOUBLE(a, p) __splice_burst_store2((a), (p))
#define READ_DOUBLE(a, p)  __splice_burst_load2((a), (p))
#define WRITE_QUAD(a, p)   __splice_burst_store4((a), (p))
#define READ_QUAD(a, p)    __splice_burst_load4((a), (p))

/* pseudo asynchronous interface: per-beat handshakes already order
   transactions, so the barrier is a NULL statement (§6.1.1). */
#define WAIT_FOR_RESULTS(id) ((void)0)

#define SPLICE_DMA_MAX_BYTES 256
#define WRITE_DMA(a, p, n) __splice_dma_store((a), (p), (n))
#define READ_DMA(a, p, n)  __splice_dma_load((a), (p), (n))

/* bus primitives the macros above call (board support package) */
void __splice_burst_store2(unsigned long addr, const void *src);
void __splice_burst_load2(unsigned long addr, void *dst);
void __splice_burst_store4(unsigned long addr, const void *src);
void __splice_burst_load4(unsigned long addr, void *dst);
void __splice_dma_store(unsigned long addr, const void *src, unsigned long bytes);
void __splice_dma_load(unsigned long addr, void *dst, unsigned long bytes);

#endif /* SPLICE_LIB_H */
