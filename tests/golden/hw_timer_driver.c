/* hw_timer_driver.c — generated by Splice */
#include <stdlib.h>
#include "splice_lib.h"
#include "hw_timer_driver.h"

/* ID Used to Target disable */
#define DISABLE_ID 1

/* Driver Used to Activate disable in HW */
void disable(void)
{
    unsigned func_addr;
    splice_word_t splice_sync;

    func_addr = SET_ADDRESS(DISABLE_ID);

    /* Wait for Calculations to Complete */
    WAIT_FOR_RESULTS(DISABLE_ID);

    /* Synchronous wait: read the pseudo output state */
    READ_SINGLE(func_addr, &splice_sync);
    (void)splice_sync;
}

/* ID Used to Target enable */
#define ENABLE_ID 2

/* Driver Used to Activate enable in HW */
void enable(void)
{
    unsigned func_addr;
    splice_word_t splice_sync;

    func_addr = SET_ADDRESS(ENABLE_ID);

    /* Wait for Calculations to Complete */
    WAIT_FOR_RESULTS(ENABLE_ID);

    /* Synchronous wait: read the pseudo output state */
    READ_SINGLE(func_addr, &splice_sync);
    (void)splice_sync;
}

/* ID Used to Target set_threshold */
#define SET_THRESHOLD_ID 3

/* Driver Used to Activate set_threshold in HW */
void set_threshold(llong thold)
{
    unsigned func_addr;
    splice_word_t splice_sync;

    func_addr = SET_ADDRESS(SET_THRESHOLD_ID);

    /* Transfer 2 beat(s) of thold (each value split across 2 beats) */
    WRITE_SINGLE(func_addr, ((splice_word_t *)&thold) + 0);
    WRITE_SINGLE(func_addr, ((splice_word_t *)&thold) + 1);

    /* Wait for Calculations to Complete */
    WAIT_FOR_RESULTS(SET_THRESHOLD_ID);

    /* Synchronous wait: read the pseudo output state */
    READ_SINGLE(func_addr, &splice_sync);
    (void)splice_sync;
}

/* ID Used to Target get_threshold */
#define GET_THRESHOLD_ID 4

/* Driver Used to Activate get_threshold in HW */
llong get_threshold(void)
{
    unsigned func_addr;
    llong result;

    func_addr = SET_ADDRESS(GET_THRESHOLD_ID);

    /* Wait for Calculations to Complete */
    WAIT_FOR_RESULTS(GET_THRESHOLD_ID);

    /* Grab Result from Hardware */
    READ_SINGLE(func_addr, ((splice_word_t *)&result) + 0);
    READ_SINGLE(func_addr, ((splice_word_t *)&result) + 1);

    return result;
}

/* ID Used to Target get_snapshot */
#define GET_SNAPSHOT_ID 5

/* Driver Used to Activate get_snapshot in HW */
llong get_snapshot(void)
{
    unsigned func_addr;
    llong result;

    func_addr = SET_ADDRESS(GET_SNAPSHOT_ID);

    /* Wait for Calculations to Complete */
    WAIT_FOR_RESULTS(GET_SNAPSHOT_ID);

    /* Grab Result from Hardware */
    READ_SINGLE(func_addr, ((splice_word_t *)&result) + 0);
    READ_SINGLE(func_addr, ((splice_word_t *)&result) + 1);

    return result;
}

/* ID Used to Target get_clock */
#define GET_CLOCK_ID 6

/* Driver Used to Activate get_clock in HW */
ulong get_clock(void)
{
    unsigned func_addr;
    ulong result;

    func_addr = SET_ADDRESS(GET_CLOCK_ID);

    /* Wait for Calculations to Complete */
    WAIT_FOR_RESULTS(GET_CLOCK_ID);

    /* Grab Result from Hardware */
    READ_SINGLE(func_addr, &result);

    return result;
}

/* ID Used to Target get_status */
#define GET_STATUS_ID 7

/* Driver Used to Activate get_status in HW */
ulong get_status(void)
{
    unsigned func_addr;
    ulong result;

    func_addr = SET_ADDRESS(GET_STATUS_ID);

    /* Wait for Calculations to Complete */
    WAIT_FOR_RESULTS(GET_STATUS_ID);

    /* Grab Result from Hardware */
    READ_SINGLE(func_addr, &result);

    return result;
}

