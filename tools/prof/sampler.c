/*
 * A sampling CPU profiler to preload into any process of this repo:
 *
 *   cc -O2 -shared -fPIC -o build/libuscope_prof.so tools/prof/sampler.c
 *   LD_PRELOAD=$PWD/build/libuscope_prof.so ./some/binary ...
 *   python3 tools/prof/report.py uscope-prof.*.txt
 *
 * Every millisecond of CPU time the process spends (ITIMER_PROF, all
 * threads together) raises SIGPROF, and the handler records the
 * interrupted thread's backtrace into a fixed buffer.  At exit the
 * process writes uscope-prof.<pid>.txt into its working directory:
 * its command line, its executable mappings and one line of return
 * addresses per sample.  report.py symbolizes them with addr2line.
 *
 * LD_PRELOAD is inherited, so processes the program starts, such as
 * the campaign service's worker processes, are sampled too, each into
 * its own file.  A process that dies by a signal writes nothing.
 */

#define _GNU_SOURCE
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

enum {
    kPeriodUs = 1000,
    kMaxDepth = 64,
    /* Words of sample storage: a count plus up to kMaxDepth frames
     * per sample; 16 MiB holds about a CPU-hour of shallow stacks. */
    kWords = 2 * 1024 * 1024,
};

static uintptr_t samples[kWords];
static volatile size_t used;
static volatile size_t dropped;

static void
onProf(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    (void)context;
    /* Frames 0 and 1 are this handler and the signal trampoline; the
     * interrupted instruction is frame 2. */
    void *frames[kMaxDepth + 2];
    const int n = backtrace(frames, kMaxDepth + 2);
    if (n <= 2)
        return;
    const size_t depth = (size_t)n - 2;
    /* SIGPROF is blocked while the handler runs, so one handler at a
     * time writes the buffer. */
    if (used + 1 + depth > kWords) {
        ++dropped;
        return;
    }
    samples[used] = depth;
    for (size_t i = 0; i < depth; ++i)
        samples[used + 1 + i] = (uintptr_t)frames[i + 2];
    used += 1 + depth;
}

static void
arm(void)
{
    const struct itimerval period = {{0, kPeriodUs}, {0, kPeriodUs}};
    setitimer(ITIMER_PROF, &period, NULL);
}

static void
disarm(void)
{
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
}

/* A forked child starts with no timer and its parent's samples. */
static void
afterFork(void)
{
    used = 0;
    dropped = 0;
    arm();
}

/* Copy @p path into @p out, prefixing each line with @p tag. */
static void
copyLines(FILE *out, const char *path, const char *tag, int executable)
{
    FILE *in = fopen(path, "r");
    if (!in)
        return;
    char line[4096];
    while (fgets(line, sizeof line, in)) {
        /* Only executable mappings hold return addresses. */
        if (executable && !strstr(line, " r-xp "))
            continue;
        fprintf(out, "%s %s", tag, line);
    }
    fclose(in);
}

__attribute__((constructor)) static void
start(void)
{
    /* The first backtrace() loads the unwinder, which allocates; do
     * it here, not in the signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = onProf;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    pthread_atfork(NULL, NULL, afterFork);
    arm();
}

__attribute__((destructor)) static void
finish(void)
{
    disarm();
    char path[64];
    snprintf(path, sizeof path, "uscope-prof.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "uscope-prof 1 period_us %d dropped %zu\n", kPeriodUs,
            (size_t)dropped);

    /* The command line, its NULs as spaces. */
    char cmd[4096];
    FILE *in = fopen("/proc/self/cmdline", "r");
    size_t len = in ? fread(cmd, 1, sizeof cmd - 1, in) : 0;
    if (in)
        fclose(in);
    for (size_t i = 0; i < len; ++i)
        if (cmd[i] == '\0')
            cmd[i] = ' ';
    cmd[len] = '\0';
    fprintf(out, "cmdline %s\n", cmd);

    copyLines(out, "/proc/self/maps", "map", 1);
    for (size_t at = 0; at < used;) {
        const size_t depth = samples[at];
        fputs("sample", out);
        for (size_t i = 0; i < depth; ++i)
            fprintf(out, " %lx", (unsigned long)samples[at + 1 + i]);
        fputc('\n', out);
        at += 1 + depth;
    }
    fclose(out);
}
