/* Prints getenv of each argv name, one line each, "(unset)" for NULL, over
 * the real environment followed by entries that a scan comparing the first
 * bytes inline must still tell apart: one-byte names, a variable without
 * '=', a name that is a prefix of another, and a value holding '='. */
#include <stdio.h>
#include <stdlib.h>

extern char **environ;

int main(int argc, char **argv) {
    static char *odd[] = {"QQ=two", "Q=one", "Z", "Y", "Y=yes", "NOEQ", "NOEQ=after",
                          "PREFIXED=long", "P=short", "A=B=C"};
    size_t n = 0, extra = sizeof odd / sizeof *odd;
    while (environ[n])
        n++;
    char **env = malloc((n + extra + 1) * sizeof *env);
    if (!env)
        return 2;
    for (size_t i = 0; i < n; i++)
        env[i] = environ[i];
    for (size_t i = 0; i < extra; i++)
        env[n + i] = odd[i];
    env[n + extra] = NULL;
    environ = env;
    for (int i = 1; i < argc; i++) {
        const char *v = getenv(argv[i]);
        printf("%s\n", v ? v : "(unset)");
    }
    return 0;
}
