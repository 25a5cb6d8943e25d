#include <errno.h>
#include <stdio.h>

int main(int argc, char **argv) {
    if (argc < 2)
        return 2;
    FILE *fp = fopen(argv[1], "r");
    if (!fp) {
        printf("fopen failed: errno %d\n", errno);
        return 1;
    }
    char line[256];
    while (fgets(line, sizeof line, fp))
        fputs(line, stdout);
    fclose(fp);
    return 0;
}
