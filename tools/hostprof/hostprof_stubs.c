/* PC sampler for hostprof: a SIGALRM handler records the interrupted
   program counter into a buffer allocated before the timer is armed, so
   the handler itself only stores a word and bumps a count.

   Supported on x86-64 and aarch64 Linux. Elsewhere every entry point
   still exists and [hostprof_supported] returns false, so the tool
   builds on any host and reports "unsupported" at run time. */

#define _GNU_SOURCE
#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define HOSTPROF_SUPPORTED 1
#include <elf.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#else
#define HOSTPROF_SUPPORTED 0
#endif

static uintptr_t *samples;
static size_t capacity;
static volatile size_t taken;
static volatile size_t dropped;

/* the executable's load bias (0 unless it is position-independent) and
   the address range of its executable mappings; PCs outside the range
   are in shared libraries, the vdso or the kernel */
static uintptr_t load_offset, text_lo, text_hi;

#if HOSTPROF_SUPPORTED

static struct sigaction saved;

static void on_alarm(int sig, siginfo_t *info, void *ctx)
{
  ucontext_t *uc = ctx;
  uintptr_t pc;
  (void)sig;
  (void)info;
#if defined(__x86_64__)
  pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#else
  pc = (uintptr_t)uc->uc_mcontext.pc;
#endif
  if (taken < capacity)
    samples[taken++] = pc;
  else
    dropped++;
}

/* Read /proc/self/maps: the executable's mappings give the text range,
   and its mapping at file offset 0 holds the ELF header, which says
   whether the image is position-independent (ET_DYN) and where its
   first loadable segment was linked. The load offset is the distance
   between the two, which `nm` addresses need added back. */
static void read_maps(void)
{
  char exe[4096], line[4608], path[4096], perms[8];
  ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  FILE *f;
  uintptr_t base = 0;
  int have_base = 0;
  load_offset = 0;
  text_lo = UINTPTR_MAX;
  text_hi = 0;
  if (len <= 0) return;
  exe[len] = '\0';
  f = fopen("/proc/self/maps", "r");
  if (f == NULL) return;
  while (fgets(line, sizeof line, f) != NULL) {
    unsigned long lo, hi, off;
    path[0] = '\0';
    if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095s", &lo, &hi, perms, &off, path) < 4)
      continue;
    if (strcmp(path, exe) != 0) continue;
    if (off == 0 && !have_base) {
      base = lo;
      have_base = 1;
    }
    if (strchr(perms, 'x') != NULL) {
      if (lo < text_lo) text_lo = lo;
      if (hi > text_hi) text_hi = hi;
    }
  }
  fclose(f);
  if (have_base) {
    const Elf64_Ehdr *eh = (const Elf64_Ehdr *)base;
    if (memcmp(eh->e_ident, ELFMAG, SELFMAG) == 0 && eh->e_type == ET_DYN) {
      const Elf64_Phdr *ph = (const Elf64_Phdr *)(base + eh->e_phoff);
      uintptr_t first = UINTPTR_MAX;
      int i;
      for (i = 0; i < eh->e_phnum; i++)
        if (ph[i].p_type == PT_LOAD && ph[i].p_vaddr < first)
          first = ph[i].p_vaddr & ~(uintptr_t)(sysconf(_SC_PAGESIZE) - 1);
      if (first != UINTPTR_MAX) load_offset = base - first;
    }
  }
}

#endif

CAMLprim value hostprof_supported(value unit)
{
  (void)unit;
  return Val_bool(HOSTPROF_SUPPORTED);
}

CAMLprim value hostprof_start(value interval_us, value cap)
{
#if HOSTPROF_SUPPORTED
  struct sigaction sa;
  struct itimerval it;
  long us = Long_val(interval_us);
  free(samples);
  capacity = (size_t)Long_val(cap);
  samples = malloc(capacity * sizeof *samples);
  if (samples == NULL) caml_failwith("hostprof: cannot allocate the sample buffer");
  taken = 0;
  dropped = 0;
  read_maps();
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_alarm;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, &saved) != 0) caml_failwith("hostprof: sigaction");
  it.it_interval.tv_sec = us / 1000000;
  it.it_interval.tv_usec = us % 1000000;
  it.it_value = it.it_interval;
  if (setitimer(ITIMER_REAL, &it, NULL) != 0) caml_failwith("hostprof: setitimer");
#else
  (void)interval_us;
  (void)cap;
#endif
  return Val_unit;
}

CAMLprim value hostprof_stop(value unit)
{
  (void)unit;
#if HOSTPROF_SUPPORTED
  {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_REAL, &off, NULL);
    sigaction(SIGALRM, &saved, NULL);
  }
#endif
  return Val_unit;
}

/* The samples as link-time addresses (what `nm` prints), -1 for a PC
   outside the executable's own text. */
CAMLprim value hostprof_samples(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(arr);
  size_t i, n = taken;
  arr = caml_alloc(n, 0);
  for (i = 0; i < n; i++) {
    uintptr_t pc = samples[i];
    intnat v = (pc >= text_lo && pc < text_hi) ? (intnat)(pc - load_offset) : -1;
    Store_field(arr, i, Val_long(v));
  }
  CAMLreturn(arr);
}

CAMLprim value hostprof_dropped(value unit)
{
  (void)unit;
  return Val_long(dropped);
}
