/* A short-lived program: one getenv per argument, each answer printed.
 * "NAME=VALUE" for a present answer, a bare "NAME" for NULL. */

#include <stdio.h>
#include <stdlib.h>

int main(int argc, char **argv) {
    for (int i = 1; i < argc; i++) {
        const char *value = getenv(argv[i]);
        if (value)
            printf("%s=%s\n", argv[i], value);
        else
            printf("%s\n", argv[i]);
    }
    return 0;
}
