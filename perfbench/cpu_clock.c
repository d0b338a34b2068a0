/* The CPU clock and CPU affinity for perfbench. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <unistd.h>
#include <caml/mlvalues.h>

/* CPU time of every thread of the process, in nanoseconds. */
value perfbench_cpu_ns(value unit)
{
  struct timespec t;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return Val_long((intnat)t.tv_sec * 1000000000 + t.tv_nsec);
}

/* How many CPUs the calling thread may run on, or -1. */
value perfbench_cpus_allowed(value unit)
{
  cpu_set_t set;
  (void)unit;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(-1);
  return Val_long(CPU_COUNT(&set));
}

/* How many CPUs the machine has online. */
value perfbench_cpus_online(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_NPROCESSORS_ONLN));
}
