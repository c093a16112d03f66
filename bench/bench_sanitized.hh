/**
 * @file
 * ZARF_SANITIZED: 1 when this translation unit is built under
 * AddressSanitizer, else 0. Benches with a throughput floor report
 * it as informational in sanitized builds, where wall-clock rates
 * mean nothing.
 */

#ifndef ZARF_BENCH_SANITIZED_HH
#define ZARF_BENCH_SANITIZED_HH

#if defined(__SANITIZE_ADDRESS__)
#define ZARF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ZARF_SANITIZED 1
#endif
#endif
#ifndef ZARF_SANITIZED
#define ZARF_SANITIZED 0
#endif

#endif // ZARF_BENCH_SANITIZED_HH
